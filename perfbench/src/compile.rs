//! `compile-cold`: `Program::build` for System A on every registry
//! source, each pass starting from an empty compile cache, one thread,
//! no disk store.

use crate::calib;
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Layers};
use soff_datapath::{Datapath, LatencyModel};
use soff_runtime::{cache, Device, Program};
use std::time::Instant;

/// Canonical digest of one build: the IR codec encoding of its kernels,
/// each datapath's unit count and each replication choice. A typed
/// rejection (three registry apps do not fit System A, Table II) is an
/// outcome too and digests as its message.
fn digest(built: &Result<Program, String>) -> u64 {
    let p = match built {
        Ok(p) => p,
        Err(e) => return cache::fnv1a(cache::FNV_OFFSET, e.as_bytes()),
    };
    let module = soff_ir::ir::Module {
        kernels: p.kernels().iter().map(|ck| ck.kernel.clone()).collect(),
    };
    let mut h = cache::fnv1a(cache::FNV_OFFSET, &soff_ir::codec::encode_module(&module));
    for ck in p.kernels() {
        h = cache::fnv1a(h, &(ck.datapath.num_units() as u64).to_le_bytes());
        h = cache::fnv1a(h, &ck.replication.num_datapaths.to_le_bytes());
    }
    h
}

/// One cold pass: every source built once, each build timed.
struct Pass {
    seconds: f64,
    build_s: Vec<f64>,
    programs: Vec<Result<Program, String>>,
}

fn cold_pass(sources: &[&'static str], order: &[usize], device: &Device) -> Pass {
    cache::clear();
    let started = Instant::now();
    let mut build_s = vec![0.0; sources.len()];
    let mut programs: Vec<Result<Program, String>> = vec![Err(String::new()); sources.len()];
    for &i in order {
        let t = Instant::now();
        let p = Program::build(sources[i], &[], device);
        build_s[i] = t.elapsed().as_secs_f64();
        programs[i] = p.map_err(|e| e.to_string());
    }
    Pass {
        seconds: started.elapsed().as_secs_f64(),
        build_s,
        programs,
    }
}

/// Checks a pass against the reference digests; returns builds checked.
fn check(pass: &Pass, names: &[&str], reference: &[u64], rep: &mut Report) -> u64 {
    for (i, p) in pass.programs.iter().enumerate() {
        if digest(p) != reference[i] {
            rep.mismatch(format!(
                "compile {}: digest differs from the set-up pass",
                names[i]
            ));
        }
    }
    pass.programs.len() as u64
}

pub fn run(args: &Args, process_start: Instant, rep: &mut Report, layers: &mut Layers) {
    let device = Device::system_a();
    let (mut setup, mut setup_ref) = (Vec::new(), Vec::new());
    let mut apps = Vec::new();
    let mut reference = Vec::new();
    let mut rejected = 0;
    let mut rng = Rng::new(args.seed);
    for k in 0..5 {
        let t = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        // Detaching the store cannot fail; the error concerns attaching.
        let _ = cache::set_disk_store(None);
        apps = soff_workloads::all_apps();
        let sources: Vec<&'static str> = apps.iter().map(|a| a.source).collect();
        let pass = cold_pass(&sources, &rng.order(sources.len()), &device);
        let digests: Vec<u64> = pass.programs.iter().map(digest).collect();
        if !reference.is_empty() && digests != reference {
            rep.mismatch("compile: set-up passes disagree".to_string());
        }
        reference = digests;
        rejected = pass.programs.iter().filter(|p| p.is_err()).count();
        setup.push(t.elapsed().as_secs_f64());
        setup_ref.push(setup[k] * calib::factor(calib::measure(3)));
    }
    let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
    let sources: Vec<&'static str> = apps.iter().map(|a| a.source).collect();
    rep.raw("setup_s", stats::median(&setup), "s");
    rep.e2e("setup_s", stats::median(&setup_ref), "s");
    rep.info("compile.sources", sources.len());
    rep.info("compile.typed_rejections", rejected);

    // Untraced passes give the end-to-end numbers. A traced run
    // alternates them with traced passes, so both see the same host
    // conditions and their difference is the tracing overhead.
    let mut per_source: Vec<Vec<f64>> = vec![Vec::new(); sources.len()];
    let (mut pass_rates, mut raw_rates, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = args.trace.then(Traced::default);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds as f64 || pass_rates.is_empty() {
        let f = calib::factor(calib::measure(3));
        let pass = cold_pass(&sources, &rng.order(sources.len()), &device);
        rep.attempted += check(&pass, &names, &reference, rep);
        pass_rates.push(sources.len() as f64 / (pass.seconds * f));
        raw_rates.push(sources.len() as f64 / pass.seconds);
        pass_s.push(pass.seconds);
        for (i, s) in pass.build_s.iter().enumerate() {
            per_source[i].push(*s * 1e3 * f);
        }
        if let Some(t) = traced.as_mut() {
            t.pass(&names, &sources, &reference, &device, &mut rng, rep);
        }
    }
    let medians: Vec<f64> = per_source.iter().map(|v| stats::median(v)).collect();
    rep.info("compile.passes", pass_rates.len());
    rep.info("compile.build_samples", pass_rates.len() * sources.len());
    let rate = stats::median(&pass_rates);
    rep.raw("ops_per_s", stats::median(&raw_rates), "1/s");
    rep.e2e("ops_per_s", rate, "1/s");
    rep.e2e("op_ms", stats::geomean(&medians), "ms");
    // Sources are not alike: over the pooled samples the p95 would sit on
    // the edge between two sources' times. Over per-source medians it is
    // the second-slowest source's typical build.
    rep.e2e(
        "op_ms_p95",
        stats::nearest_rank(&medians, 0.95).unwrap_or(0.0),
        "ms",
    );
    rep.alias("compile.programs_per_s", rate, "1/s");
    if let Some(t) = traced {
        t.report(args, stats::median(&pass_s), rep, layers);
    }
}

/// Traced passes: every layer of one build called separately from here,
/// then the whole `Program::build` (cold) for the runtime's share.
#[derive(Default)]
struct Traced {
    tr: Tracer,
    passes: u64,
    tokens: u64,
    instrs: u64,
    units: u64,
    /// Σ `Program::build` seconds per traced pass.
    build_pass_s: Vec<f64>,
    /// Compile-cache (hits, lookups) over the traced builds.
    cache: (u64, u64),
}

impl Traced {
    fn pass(
        &mut self,
        names: &[&str],
        sources: &[&'static str],
        reference: &[u64],
        device: &Device,
        rng: &mut Rng,
        rep: &mut Report,
    ) {
        let lat = LatencyModel::default();
        let tr = &mut self.tr;
        cache::clear();
        self.passes += 1;
        let mut build_total = 0u64;
        for i in rng.order(sources.len()) {
            let (src, id) = (sources[i], i as u64);
            rep.attempted += 1;
            tr.begin("compile.source", id);
            let layered = tr
                .span("frontend.preprocess", id, || {
                    soff_frontend::preprocess::preprocess(src, &[])
                })
                .and_then(|text| {
                    let toks = tr.span("frontend.lex", id, || soff_frontend::lexer::lex(&text))?;
                    self.tokens += toks.len() as u64;
                    let unit =
                        tr.span("frontend.parse", id, || soff_frontend::parser::parse(toks))?;
                    let analysis =
                        tr.span("frontend.sema", id, || soff_frontend::sema::analyze(&unit))?;
                    let parsed = soff_frontend::Parsed {
                        unit,
                        analysis,
                        source: text,
                    };
                    tr.span("ir.lower", id, || soff_ir::build::lower(&parsed))
                });
            let module = match layered {
                Ok(m) => m,
                Err(e) => {
                    tr.end();
                    rep.mismatch(format!(
                        "compile {}: layered frontend failed: {e}",
                        names[i]
                    ));
                    continue;
                }
            };
            for k in &module.kernels {
                self.instrs += k.values.len() as u64;
                let dp = tr.span("datapath.build", id, || Datapath::build(k, &lat));
                self.units += dp.num_units() as u64;
            }
            let before = cache::stats();
            tr.begin("runtime.program_build", id);
            let built = Program::build(src, &[], device).map_err(|e| e.to_string());
            build_total += tr.end();
            tr.end();
            let after = cache::stats();
            let hits = after.frontend_hits + after.program_hits
                - before.frontend_hits
                - before.program_hits;
            let misses = after.frontend_misses + after.program_misses
                - before.frontend_misses
                - before.program_misses;
            self.cache.0 += hits;
            self.cache.1 += hits + misses;
            if digest(&built) != reference[i] {
                rep.mismatch(format!("compile {}: traced digest differs", names[i]));
            }
            if let Ok(p) = built {
                // The layer-by-layer lowering must be the module the
                // runtime built.
                let whole = soff_ir::ir::Module {
                    kernels: p.kernels().iter().map(|ck| ck.kernel.clone()).collect(),
                };
                if soff_ir::codec::encode_module(&whole) != soff_ir::codec::encode_module(&module) {
                    rep.mismatch(format!("compile {}: layered IR differs", names[i]));
                }
            }
        }
        self.build_pass_s.push(build_total as f64 * 1e-9);
    }

    fn report(self, args: &Args, untraced_pass_s: f64, rep: &mut Report, layers: &mut Layers) {
        let passes = self.passes as f64;
        let totals = self.tr.totals();
        let t = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 * 1e-6 / passes;
        let layered = [
            "frontend.preprocess",
            "frontend.lex",
            "frontend.parse",
            "frontend.sema",
        ]
        .iter()
        .map(|n| t(n))
        .sum::<f64>()
            + t("ir.lower")
            + t("datapath.build");
        layers.set("frontend.preprocess_ms", t("frontend.preprocess"));
        layers.set("frontend.lex_ms", t("frontend.lex"));
        layers.set("frontend.parse_ms", t("frontend.parse"));
        layers.set("frontend.sema_ms", t("frontend.sema"));
        layers.set("frontend.tokens", self.tokens as f64 / passes);
        layers.set("ir.lower_ms", t("ir.lower"));
        layers.set("ir.instrs", self.instrs as f64 / passes);
        layers.set("datapath.build_ms", t("datapath.build"));
        layers.set("datapath.units", self.units as f64 / passes);
        layers.set("runtime.program_build_ms", t("runtime.program_build"));
        layers.set(
            "runtime.program_other_ms",
            t("runtime.program_build") - layered,
        );
        layers.set(
            "runtime.cache_hit_ratio",
            self.cache.0 as f64 / self.cache.1.max(1) as f64,
        );
        let traced_s = stats::median(&self.build_pass_s);
        layers.set("trace.overhead_share", traced_s / untraced_pass_s - 1.0);
        rep.info("trace.passes", self.passes);
        crate::write_spans(args, &self.tr);
    }
}
