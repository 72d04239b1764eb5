//! The five pinned workloads, their set-up (trace generation → cost
//! estimation → planning → deploy → system assembly), and the one
//! `step` that replays a window through either driver.

use crate::spans::Tracer;
use sonata_core::driver::{deploy, DeployedPlan};
use sonata_core::{Fabric, Runtime, RuntimeConfig, TopologyConfig, WindowReport};
use sonata_net::TransportKind;
use sonata_obs::ObsHandle;
use sonata_packet::Packet;
use sonata_pisa::PisaProgram;
use sonata_planner::costs::CostConfig;
use sonata_planner::{estimate_costs, plan_with_costs, GlobalPlan, PlanMode, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};
use sonata_query::Query;
use sonata_traffic::trace::EvaluationTrace;
use std::time::Instant;

/// Window length of every workload, ms.
pub const WINDOW_MS: u64 = 3_000;
/// Windows per replay at full size.
pub const WINDOWS: u32 = 16;
/// Windows the planner trains on.
const TRAINING_WINDOWS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One switch, one collector.
    Runtime,
    /// 2 switches × 2 collector shards.
    Fabric2x2,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Catalog {
    Top8,
    /// Only `newly_opened_tcp_conns`.
    Q1,
}

/// One pinned workload. `why` is the layer it loads; the README has
/// the full prediction table.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub transport: TransportKind,
    pub catalog: Catalog,
    pub mode: PlanMode,
    /// Background-traffic scale of `EvaluationTrace::generate`.
    pub scale: f64,
}

/// Scales are the issue's starting points shrunk until three set-ups,
/// the warm-up and seven timed replays fit the contract's time cap on
/// two cores (cost estimation at scale 0.3 alone takes ~7 s per
/// set-up; one TCP replay at scale 0.02 takes ~3 s).
pub const ALL: [Workload; 5] = [
    Workload {
        name: "rt_sonata_top8",
        why: "multi-query switch loop over 4 refinement levels; almost nothing reaches the collector",
        driver: Driver::Runtime,
        transport: TransportKind::Loopback,
        catalog: Catalog::Top8,
        mode: PlanMode::Sonata,
        scale: 0.1,
    },
    Workload {
        name: "rt_sonata_q1",
        why: "one query: per-packet fixed costs (arena build, ship/pump turn, window boundary) dominate",
        driver: Driver::Runtime,
        transport: TransportKind::Loopback,
        catalog: Catalog::Q1,
        mode: PlanMode::Sonata,
        scale: 0.3,
    },
    Workload {
        name: "rt_maxdp_top8",
        why: "every stateful operator in registers, no refinement: register updates and large window dumps",
        driver: Driver::Runtime,
        transport: TransportKind::Loopback,
        catalog: Catalog::Top8,
        mode: PlanMode::MaxDp,
        scale: 0.1,
    },
    Workload {
        name: "rt_allsp_top8",
        why: "every packet mirrored for every query: report egress, emitter and stream engine do the work",
        driver: Driver::Runtime,
        transport: TransportKind::Loopback,
        catalog: Catalog::Top8,
        mode: PlanMode::AllSp,
        scale: 0.02,
    },
    Workload {
        name: "fab_filterdp_tcp",
        why: "2x2 fabric over localhost TCP: codec, sockets, partition clones and cross-switch merge dominate",
        driver: Driver::Fabric2x2,
        transport: TransportKind::Tcp,
        catalog: Catalog::Top8,
        mode: PlanMode::FilterDp,
        scale: 0.01,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn queries(&self) -> Vec<Query> {
        let t = Thresholds::default();
        match self.catalog {
            Catalog::Top8 => catalog::top8(&t),
            Catalog::Q1 => vec![catalog::newly_opened_tcp_conns(&t)],
        }
    }

    /// Switches the driver splits a window across.
    pub fn switches(&self) -> usize {
        match self.driver {
            Driver::Runtime => 1,
            Driver::Fabric2x2 => 2,
        }
    }

    fn config(&self, obs: &ObsHandle) -> RuntimeConfig {
        RuntimeConfig {
            transport: self.transport,
            topology: match self.driver {
                Driver::Runtime => None,
                Driver::Fabric2x2 => Some(TopologyConfig::new(self.switches(), 2)),
            },
            obs: obs.clone(),
            ..Default::default()
        }
    }
}

/// Everything set-up produces that replays reuse.
pub struct Prepared {
    pub ev: EvaluationTrace,
    pub queries: Vec<Query>,
    pub plan: GlobalPlan,
    pub deployed: DeployedPlan,
}

impl Prepared {
    pub fn windows(&self) -> Vec<(u64, &[Packet])> {
        self.ev.trace.windows(WINDOW_MS).collect()
    }
}

/// Run the whole set-up once. Each stage is a span (`traffic.gen`,
/// `planner.cost_estimate`, `planner.solve`, `core.deploy`,
/// `core.system_new`) under one `setup` root; `setup_s` is the root's
/// duration.
pub fn prepare(
    w: &Workload,
    seed: u64,
    windows: u32,
    tr: &mut Tracer,
) -> Result<(Prepared, f64), String> {
    let started = Instant::now();
    let root = tr.open("setup", None);
    let ev = tr.leaf("traffic.gen", Some(root), || {
        EvaluationTrace::generate(seed, windows, WINDOW_MS, w.scale)
    });
    let queries = w.queries();
    let training: Vec<&[Packet]> = ev
        .trace
        .windows(WINDOW_MS)
        .map(|(_, p)| p)
        .take(TRAINING_WINDOWS)
        .collect();
    let cost = CostConfig {
        levels: Some(vec![8, 16, 24, 32]),
        ..Default::default()
    };
    let costs = tr
        .leaf("planner.cost_estimate", Some(root), || {
            queries
                .iter()
                .map(|q| estimate_costs(q, &training, &cost))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("cost estimation: {e:?}"))?;
    let cfg = PlannerConfig {
        mode: w.mode,
        cost,
        ..Default::default()
    };
    let plan = tr
        .leaf("planner.solve", Some(root), || {
            plan_with_costs(&queries, &costs, &cfg)
        })
        .map_err(|e| format!("planning: {e:?}"))?;
    let deployed = tr
        .leaf("core.deploy", Some(root), || deploy(&plan))
        .map_err(|e| format!("deploy: {e}"))?;
    tr.leaf("core.system_new", Some(root), || {
        System::new(w, &plan, &ObsHandle::disabled()).map(drop)
    })?;
    tr.close(root);
    let prepared = Prepared {
        ev,
        queries,
        plan,
        deployed,
    };
    Ok((prepared, started.elapsed().as_secs_f64()))
}

/// Either driver behind the one call a replay makes per window.
pub enum System {
    Rt(Box<Runtime>),
    Fab(Box<Fabric>),
}

impl System {
    pub fn new(w: &Workload, plan: &GlobalPlan, obs: &ObsHandle) -> Result<Self, String> {
        let cfg = w.config(obs);
        match w.driver {
            Driver::Runtime => Runtime::new(plan, cfg).map(|rt| System::Rt(Box::new(rt))),
            Driver::Fabric2x2 => Fabric::new(plan, cfg).map(|f| System::Fab(Box::new(f))),
        }
        .map_err(|e| format!("{}: assembling the system: {e}", w.name))
    }

    /// One window end to end: `process_window`, preceded for a fabric
    /// by `partition_window` (part of what its user waits for).
    pub fn step(&mut self, window: u64, packets: &[Packet]) -> Result<WindowReport, String> {
        match self {
            System::Rt(rt) => rt.process_window(window, packets),
            System::Fab(fab) => {
                let parts = fab.partition_window(packets);
                fab.process_window(window, &parts)
            }
        }
        .map_err(|e| format!("window {window}: {e}"))
    }

    /// The program the next window will execute, dynamic-refinement
    /// tables included. A fabric exposes no switch, so its shadow runs
    /// the deployed program — exact for plans without refinement
    /// (Filter-DP), and checked per window by the tuple equality.
    pub fn program(&self, deployed: &DeployedPlan) -> PisaProgram {
        match self {
            System::Rt(rt) => rt.switch().program().clone(),
            System::Fab(_) => deployed.program.clone(),
        }
    }

    /// The window split the way the driver splits it: one part for a
    /// runtime, `partition_window` for a fabric.
    pub fn parts(&self, packets: &[Packet]) -> Option<Vec<Vec<Packet>>> {
        match self {
            System::Rt(_) => None,
            System::Fab(fab) => Some(fab.partition_window(packets)),
        }
    }
}
