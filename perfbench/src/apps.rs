//! `sim-apps`: every app SOFF runs, at `Scale::Small`, through
//! `SimRunner` on one thread, each checked against its host reference.
//! The seed fixes the order apps run in within each pass.

use crate::calib;
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{alloc, Args, Layers};
use soff_baseline::{Framework, Outcome};
use soff_ir::NdRange;
use soff_runtime::{Buffer, Context, LaunchError, Program};
use soff_sim::{Machine, SimError, SimResult};
use soff_workloads::data::Scale;
use soff_workloads::runner::{Arg, BufId, RunError, Runner, SimRunner};
use soff_workloads::{App, Suite};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Forwards to another runner and notes when the first launch starts.
struct FirstLaunch<'r> {
    inner: &'r mut dyn Runner,
    first: Option<Instant>,
}

impl Runner for FirstLaunch<'_> {
    fn alloc_bytes(&mut self, data: &[u8]) -> BufId {
        self.inner.alloc_bytes(data)
    }

    fn launch(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError> {
        self.first.get_or_insert_with(Instant::now);
        self.inner.launch(kernel, args, nd)
    }

    fn read_bytes(&mut self, b: BufId) -> Vec<u8> {
        self.inner.read_bytes(b)
    }
}

/// Runs one app on `runner`; returns its host ms from the first launch
/// to the validated output, or why it did not validate.
fn timed_run(app: &App, runner: &mut dyn Runner) -> Result<f64, String> {
    let start = Instant::now();
    let mut fl = FirstLaunch {
        inner: runner,
        first: None,
    };
    let ran = catch_unwind(AssertUnwindSafe(|| (app.run)(&mut fl, Scale::Small)));
    let ms = fl.first.unwrap_or(start).elapsed().as_secs_f64() * 1e3;
    match ran {
        Ok(Ok(true)) => Ok(ms),
        Ok(Ok(false)) => Err("output differs from the host reference".to_string()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("host program panicked".to_string()),
    }
}

/// The runner a traced pass launches through: the same sequence as
/// `Context::enqueue_ndrange` (`prepare_launch`, `launch_config`,
/// `Machine::new`, `Machine::run`), each call timed as a span.
struct TracedRunner<'t> {
    ctx: Context,
    program: Program,
    buffers: Vec<Buffer>,
    tr: &'t mut Tracer,
    id: u64,
    results: Vec<SimResult>,
    /// Σ cycles × functional units × instances over launches.
    unit_cycles: f64,
    allocs: u64,
}

impl<'t> TracedRunner<'t> {
    fn new(app: &App, tr: &'t mut Tracer, id: u64) -> Result<TracedRunner<'t>, Outcome> {
        let (program, device) = soff_baseline::build(Framework::Soff, app.source, &[])?;
        let replication = program
            .kernels()
            .iter()
            .map(|k| k.replication.num_datapaths)
            .min()
            .unwrap_or(1);
        let mut ctx = Context::new(device);
        soff_baseline::configure_context(Framework::Soff, &mut ctx, replication);
        Ok(TracedRunner {
            ctx,
            program,
            buffers: Vec::new(),
            tr,
            id,
            results: Vec::new(),
            unit_cycles: 0.0,
            allocs: 0,
        })
    }
}

impl Runner for TracedRunner<'_> {
    fn alloc_bytes(&mut self, data: &[u8]) -> BufId {
        let b = self.tr.span("runtime.buffer_io", self.id, || {
            self.ctx.create_buffer_init(data)
        });
        self.buffers.push(b);
        BufId(self.buffers.len() - 1)
    }

    fn launch(&mut self, kernel: &str, args: &[Arg], nd: NdRange) -> Result<(), RunError> {
        let (id, ctx, buffers) = (self.id, &mut self.ctx, &self.buffers);
        self.tr.begin("runtime.launch", id);
        let Some(mut k) = self.program.kernel(kernel) else {
            self.tr.end();
            return Err(RunError::MissingKernel(kernel.to_string()));
        };
        for (i, a) in args.iter().enumerate() {
            match a {
                Arg::Buf(b) => k.set_arg_buffer(i, buffers[b.0]),
                Arg::I32(v) => k.set_arg_i32(i, *v),
                Arg::F32(v) => k.set_arg_f32(i, *v),
                Arg::U64(v) => k.set_arg_u64(i, *v),
                Arg::Local(v) => k.set_arg_local(i, *v),
            };
        }
        let prepared = ctx.prepare_launch(&k, nd);
        let ck = k.compiled();
        let cfg = ctx.launch_config(ck);
        self.tr.end();
        let sim = prepared.and_then(|largs| {
            let mut m = self.tr.span("sim.elab", id, || {
                Machine::new(&ck.kernel, &ck.datapath, &cfg, nd, &largs)
            })?;
            let gm = ctx.global_memory_mut();
            let (r, n) = self
                .tr
                .span("sim.loop", id, || alloc::counted(|| m.run(gm)));
            self.allocs += n;
            Ok(r?)
        });
        let sim = sim.map_err(|e| match e {
            LaunchError::Sim(SimError::Deadlock { .. } | SimError::Timeout { .. }) => {
                RunError::Outcome(Outcome::Hang)
            }
            _ => RunError::Outcome(Outcome::RuntimeError),
        })?;
        self.unit_cycles +=
            sim.cycles as f64 * ck.datapath.num_units() as f64 * f64::from(cfg.num_instances);
        self.results.push(sim);
        Ok(())
    }

    fn read_bytes(&mut self, b: BufId) -> Vec<u8> {
        let (ctx, h) = (&self.ctx, self.buffers[b.0]);
        self.tr.span("runtime.buffer_io", self.id, || {
            ctx.read_buffer(h).expect("runner-owned buffer handle")
        })
    }
}

/// The apps SOFF runs: every registry app whose program fits System A.
/// Builds them (cold) so measured passes start from built programs.
fn set_up(rep: &mut Report) -> Vec<App> {
    soff_runtime::cache::clear();
    let mut run = Vec::new();
    for app in soff_workloads::all_apps() {
        match soff_baseline::build(Framework::Soff, app.source, &[]) {
            Ok(_) => run.push(app),
            // Table II: these do not fit the device, so SOFF runs no cycle of them.
            Err(Outcome::InsufficientResources) => {}
            Err(o) => rep.mismatch(format!(
                "sim-apps {}: build failed ({})",
                app.name,
                o.code()
            )),
        }
    }
    run
}

pub fn run(args: &Args, process_start: Instant, rep: &mut Report, layers: &mut Layers) {
    let (mut setup, mut setup_ref) = (Vec::new(), Vec::new());
    let mut apps = Vec::new();
    for k in 0..5 {
        let t = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        apps = set_up(rep);
        setup.push(t.elapsed().as_secs_f64());
        setup_ref.push(setup[k] * calib::factor(calib::measure(3)));
    }
    rep.raw("setup_s", stats::median(&setup), "s");
    rep.e2e("setup_s", stats::median(&setup_ref), "s");
    rep.info("sim.apps", apps.len());

    // Untraced passes give the end-to-end numbers. A traced run
    // alternates them with traced passes, so both see the same host
    // conditions and their difference is the tracing overhead.
    let mut rng = Rng::new(args.seed);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
    let mut raw_ms: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
    let mut cycles: Vec<Option<u64>> = vec![None; apps.len()];
    let mut launches: Vec<Vec<SimResult>> = vec![Vec::new(); apps.len()];
    let (mut rates, mut pass_app_ms) = (Vec::new(), Vec::new());
    let mut traced = args.trace.then(Traced::default);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds as f64 || rates.is_empty() {
        let mut app_ms = 0.0;
        // One reference sample before each app tracks the host's speed
        // through the pass; the pass is normalized by their median.
        let mut speed = Vec::with_capacity(apps.len());
        let mut pass_samples = Vec::with_capacity(apps.len());
        for i in rng.order(apps.len()) {
            speed.push(calib::sample());
            let app = &apps[i];
            rep.attempted += 1;
            let mut runner = match SimRunner::new(Framework::Soff, app.source, &[]) {
                Ok(r) => r,
                Err(o) => {
                    rep.mismatch(format!(
                        "sim-apps {}: build failed ({})",
                        app.name,
                        o.code()
                    ));
                    continue;
                }
            };
            match timed_run(app, &mut runner) {
                Ok(ms) => {
                    pass_samples.push((i, ms));
                    app_ms += ms;
                }
                Err(e) => rep.mismatch(format!("sim-apps {}: {e}", app.name)),
            }
            // Simulated cycles are deterministic: every pass must agree.
            if *cycles[i].get_or_insert(runner.total_cycles) != runner.total_cycles {
                rep.mismatch(format!(
                    "sim-apps {}: cycles differ between passes",
                    app.name
                ));
            }
            launches[i] = std::mem::take(&mut runner.launch_results);
        }
        let f = calib::factor(stats::median(&speed));
        for (i, ms) in pass_samples {
            samples[i].push(ms * f);
            raw_ms[i].push(ms);
        }
        rates.push(apps.len() as f64 / (app_ms * 1e-3 * f));
        pass_app_ms.push(app_ms);
        if let Some(t) = traced.as_mut() {
            t.pass(&apps, &launches, &mut rng, rep);
        }
    }
    let medians: Vec<f64> = samples.iter().map(|v| stats::median(v)).collect();
    let total_cycles: u64 = cycles.iter().map(|c| c.unwrap_or(0)).sum();
    rep.info("sim.passes", rates.len());
    rep.info(
        "sim.app_samples",
        samples.iter().map(Vec::len).sum::<usize>(),
    );
    let raw_medians: Vec<f64> = raw_ms.iter().map(|v| stats::median(v)).collect();
    rep.raw("op_ms", stats::geomean(&raw_medians), "ms");
    rep.e2e("ops_per_s", stats::median(&rates), "1/s");
    rep.e2e("op_ms", stats::geomean(&medians), "ms");
    // Apps are not alike: over the pooled samples the p95 would sit on
    // the edge between two apps' times. Over per-app medians it is the
    // second-slowest app's typical time.
    rep.e2e(
        "op_ms_p95",
        stats::nearest_rank(&medians, 0.95).unwrap_or(0.0),
        "ms",
    );
    rep.alias("sim.app_ms_geomean", stats::geomean(&medians), "ms");
    rep.alias("sim.cycles", total_cycles as f64, "cycles");
    if let Some(t) = traced {
        t.report(args, stats::median(&pass_app_ms), rep, layers);
    }
}

/// Traced passes through [`TracedRunner`]; launch results must equal the
/// untraced `SimRunner` results launch for launch.
#[derive(Default)]
struct Traced {
    tr: Tracer,
    passes: u64,
    unit_cycles: f64,
    allocs: u64,
    /// Per suite (PolyBench, Stencil, SPEC): (loop ns, cycles).
    by_suite: [(u64, u64); 3],
    cycles: u64,
    hits: u64,
    misses: u64,
    dram_lines: u64,
    window_hits: u64,
    /// Σ app ms (first launch to validated output) per traced pass.
    pass_app_ms: Vec<f64>,
}

impl Traced {
    fn pass(&mut self, apps: &[App], untraced: &[Vec<SimResult>], rng: &mut Rng, rep: &mut Report) {
        self.passes += 1;
        let mut app_ms = 0.0;
        for i in rng.order(apps.len()) {
            let app = &apps[i];
            let id = (self.passes << 8) | i as u64;
            rep.attempted += 1;
            let before = self.tr.spans().len();
            let (ran, results, uc, n) = match TracedRunner::new(app, &mut self.tr, id) {
                Ok(mut r) => {
                    r.tr.begin("app", id);
                    let ran = timed_run(app, &mut r);
                    r.tr.end();
                    (ran, std::mem::take(&mut r.results), r.unit_cycles, r.allocs)
                }
                Err(o) => (
                    Err(format!("build failed ({})", o.code())),
                    Vec::new(),
                    0.0,
                    0,
                ),
            };
            match ran {
                Ok(ms) => app_ms += ms,
                Err(e) => rep.mismatch(format!("sim-apps {} (traced): {e}", app.name)),
            }
            if results != untraced[i] {
                rep.mismatch(format!("sim-apps {}: traced SimResults differ", app.name));
            }
            self.unit_cycles += uc;
            self.allocs += n;
            let loop_ns: u64 = self.tr.spans()[before..]
                .iter()
                .filter(|s| s.name == "sim.loop")
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            let app_cycles: u64 = results.iter().map(|r| r.cycles).sum();
            let suite = match app.suite {
                Suite::PolyBench => 0,
                Suite::Stencil => 1,
                Suite::SpecAccel => 2,
            };
            self.by_suite[suite].0 += loop_ns;
            self.by_suite[suite].1 += app_cycles;
            self.cycles += app_cycles;
            for r in &results {
                self.hits += r.cache.hits;
                self.misses += r.cache.misses;
                self.dram_lines += r.dram.reads + r.dram.writes;
                self.window_hits += r.line_buf.window_hits;
            }
        }
        self.pass_app_ms.push(app_ms);
    }

    fn report(self, args: &Args, untraced_app_ms: f64, rep: &mut Report, layers: &mut Layers) {
        let passes = self.passes as f64;
        let (totals, own) = (self.tr.totals(), self.tr.self_times());
        let ms = |m: &std::collections::BTreeMap<&str, u64>, n: &str| {
            m.get(n).copied().unwrap_or(0) as f64 * 1e-6 / passes
        };
        layers.set("sim.app_ms", ms(&totals, "app"));
        layers.set("workloads.host_ms", ms(&own, "app"));
        layers.set("runtime.buffer_io_ms", ms(&totals, "runtime.buffer_io"));
        layers.set("runtime.launch_ms", ms(&totals, "runtime.launch"));
        layers.set("sim.elab_ms", ms(&totals, "sim.elab"));
        layers.set("sim.loop_ms", ms(&totals, "sim.loop"));
        let ns_per = |(ns, c): (u64, u64)| if c == 0 { 0.0 } else { ns as f64 / c as f64 };
        layers.set("sim.ns_per_cycle.polybench", ns_per(self.by_suite[0]));
        layers.set("sim.ns_per_cycle.stencil", ns_per(self.by_suite[1]));
        layers.set("sim.ns_per_cycle.spec", ns_per(self.by_suite[2]));
        let loop_ns: u64 = self.by_suite.iter().map(|s| s.0).sum();
        layers.set("sim.ns_per_unit_cycle", loop_ns as f64 / self.unit_cycles);
        layers.set(
            "sim.allocs_per_cycle",
            self.allocs as f64 / self.cycles as f64,
        );
        layers.set("sim.cycles", self.cycles as f64 / passes);
        layers.set("mem.cache_hits", self.hits as f64 / passes);
        layers.set("mem.cache_misses", self.misses as f64 / passes);
        layers.set("mem.dram_lines", self.dram_lines as f64 / passes);
        layers.set("mem.linebuf_window_hits", self.window_hits as f64 / passes);
        // Over the whole run: set-up builds miss, every later lookup hits.
        layers.set(
            "runtime.cache_hit_ratio",
            soff_runtime::cache::stats().hit_rate(),
        );
        let traced_ms = stats::median(&self.pass_app_ms);
        layers.set("trace.overhead_share", traced_ms / untraced_app_ms - 1.0);
        rep.info("trace.passes", self.passes);
        crate::write_spans(args, &self.tr);
    }
}
