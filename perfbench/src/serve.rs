//! `serve-openloop`: one `Server` (defaults, except one device slot and
//! 2,000-cycle slices) with four tenant sessions: three interactive
//! tenants send short jobs (one or two slices, two kernel sources) and a
//! batch tenant sends the long ones (18 to 21 slices), 2.5% of all jobs.
//! Each tenant is an independent client thread that mostly sleeps in
//! `Session::wait_deadline`. A burst phase measures capacity; an open-loop
//! phase sends jobs on a seeded schedule at a fixed offered rate and times
//! each job from when it was due to when its result is observed. The
//! open loop sends its schedule four times over, and each scheduled
//! job's turnaround is the median of its four copies. Burst rates are
//! scaled to the reference speed (see `calib`) by the host's speed,
//! sampled in the idle gaps between rounds; the open loop keeps
//! reference time on a clock that runs at the host's speed, sampled
//! whenever no open-loop job is outstanding.
//!
//! Every input and output buffer is staged during set-up, because
//! `Session::write_buffer` waits for the tenant's in-order queue to
//! drain. Each job writes its own output buffer, so after the run every
//! job's bytes and cycles are compared with a solo `Context` run of the
//! same launch, replayed on a context with the same allocations.

use crate::calib;
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Layers};
use soff_runtime::{Buffer, Context, Device, KernelHandle, Program};
use soff_serve::{JobId, JobOutput, NdRange, ServeError, Server, ServerConfig, Session};
use soff_sim::{Machine, RunControl, SimError, SimResult};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SLICE_CYCLES: u64 = 2_000;
const TENANTS: usize = 4;
const BURST_ROUNDS: usize = 12;
/// Open-loop offered rate in jobs/s, fixed once at about 60% of the
/// burst capacity this benchmark measured when it was introduced (about
/// 67 jobs/s at the reference speed; release build, 2-core x86-64 host).
const OFFERED_PER_S: f64 = 40.0;
/// Latency limit of `serve.slo_share`, fixed once: an interactive
/// response time, which long jobs miss by design.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Fewer open-loop turnaround samples leave fewer than 10 beyond the p95.
const MIN_OPEN_JOBS: usize = 200;
/// The open loop sends its schedule this many times over, and each
/// scheduled job's turnaround is the median of its copies, as each app's
/// time in `sim-apps` is the median of its passes: a stretch of host
/// noise (the host's cores are shared) moves a copy or two, not the
/// sample. The copies of a job are a round apart, several seconds.
const OPEN_ROUNDS: usize = 4;
/// Set-ups per run (`setup_s` is their median; the first counts from
/// process start).
const SETUP_REPS: usize = 9;
/// Host-speed samples taken in each idle gap.
const SPEED_SAMPLES: usize = 7;
/// How often the open loop's idle server is sampled for the host's
/// speed: each sample takes about a millisecond of the one core, so a job
/// that arrives during one may wait for it.
const SPEED_EVERY: Duration = Duration::from_millis(10);

const ITERATE: &str = r#"
__kernel void iterate(__global const float* x, __global float* y, int iters, float a) {
    int i = get_global_id(0);
    float v = x[i];
    for (int k = 0; k < iters; k++) {
        v = v * a + 0.25f;
    }
    y[i] = v;
}
"#;

const SMOOTH: &str = r#"
__kernel void smooth(__global const float* x, __global float* y, int n) {
    int i = get_global_id(0);
    int l = i > 0 ? i - 1 : i;
    int r = i < n - 1 ? i + 1 : i;
    y[i] = (x[l] + x[i] + x[r]) * 0.33333334f;
}
"#;

const SOURCES: [&str; 2] = [ITERATE, SMOOTH];

/// A job shape: kernel, local size, and the seeded ranges its global
/// size and integer argument are drawn from (sizes vary continuously, so
/// turnaround percentiles do not sit on the edge between two shapes).
struct Kind {
    name: &'static str,
    source: usize,
    kernel: &'static str,
    /// Global sizes to draw from.
    n: &'static [u64],
    local: u64,
    /// `[lo, hi)` of the integer argument (`iterate`'s trip count); the
    /// `smooth` kernel takes `n` instead.
    iters: (i32, i32),
}

const KINDS: [Kind; 3] = [
    // One or two slices (about 300 to 2,100 cycles).
    Kind {
        name: "short-iterate",
        source: 0,
        kernel: "iterate",
        n: &[8],
        local: 8,
        iters: (10, 120),
    },
    // One slice (about 350 to 440 cycles).
    Kind {
        name: "short-smooth",
        source: 1,
        kernel: "smooth",
        n: &[64, 128, 256, 512],
        local: 64,
        iters: (0, 1),
    },
    // About 35,000 to 42,000 cycles: 18 to 21 slices.
    Kind {
        name: "long-iterate",
        source: 0,
        kernel: "iterate",
        n: &[8],
        local: 8,
        iters: (2_200, 2_600),
    },
];
/// Input floats per tenant (the largest `n`).
const N_IN: usize = 512;

/// Tenants `0..BATCH` are interactive and send only short jobs; tenant
/// `BATCH` is a batch user and sends the long ones.
const BATCH: usize = TENANTS - 1;
/// Open-loop kinds per block of 40 sends: 39 short jobs over two sources,
/// in a seeded order, and one long job at `LONG_AT`. The long jobs are
/// half the work, so they are sent evenly spaced: the seed varies which
/// short jobs meet a long one, not how many long jobs crowd together.
const SHORT_BLOCK: [usize; 39] = {
    let mut b = [0; 39];
    let mut i = 20;
    while i < 39 {
        b[i] = 1;
        i += 1;
    }
    b
};
const LONG_AT: usize = 20;
const LONG_BLOCK: usize = SHORT_BLOCK.len() + 1;
/// An interactive tenant's share of a burst round; the batch tenant adds
/// one long job (40 jobs a round, the same 2.5% long as the open loop).
const BURST_SHORT: [usize; 13] = [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
const BURST_ROUND_JOBS: usize = BATCH * BURST_SHORT.len() + 1;

/// Size strata per kind (a multiple of every kind's `n` choices).
const STRATA: usize = 8;

/// One planned job.
struct Job {
    tenant: usize,
    kind: usize,
    n: u64,
    iters: i32,
    /// Open-loop send time after the phase starts; `None` in a burst.
    due: Option<Duration>,
    /// Open-loop position in the schedule, shared by the job's copies in
    /// every round; `None` in a burst.
    slot: Option<usize>,
    a: f32,
    /// Index of the output buffer in the tenant's allocation order.
    out: usize,
}

/// The seeded plan: burst rounds first, then the open loop's rounds,
/// each job with its own output buffer. Allocation 0 of every tenant is
/// its input.
fn plan(seed: u64, seconds: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut jobs = Vec::new();
    let mut allocs = [1usize; TENANTS];
    let mut push = |tenant: usize, kind: usize, (n, iters, a), due, slot| {
        jobs.push(Job {
            tenant,
            kind,
            n,
            iters,
            due,
            slot,
            a,
            out: allocs[tenant],
        });
        allocs[tenant] += 1;
    };
    // Sizes are stratified: each kind cycles through evenly spaced
    // values of its range in a seeded order, so every stretch of the plan
    // carries about the same work.
    let mut sizes: Vec<Vec<(u64, i32)>> = vec![Vec::new(); KINDS.len()];
    let mut draw = |rng: &mut Rng, kind: usize| {
        let k = &KINDS[kind];
        if sizes[kind].is_empty() {
            let span = k.iters.1 - k.iters.0;
            let strata: Vec<(u64, i32)> = (0..STRATA)
                .map(|i| {
                    (
                        k.n[i % k.n.len()],
                        k.iters.0 + span * (2 * i as i32 + 1) / (2 * STRATA as i32),
                    )
                })
                .collect();
            sizes[kind] = rng.shuffled(&strata);
        }
        let (n, iters) = sizes[kind].pop().expect("refilled");
        (n, iters, 0.5 + 0.25 * rng.unit() as f32)
    };
    // Burst rounds stay below the default queue bounds: 13 of 16 per
    // tenant, 40 of 64 in all.
    for _ in 0..BURST_ROUNDS {
        let per: Vec<Vec<usize>> = (0..BATCH).map(|_| rng.shuffled(&BURST_SHORT)).collect();
        for slot in 0..BURST_SHORT.len() {
            for (t, kinds) in per.iter().enumerate() {
                let shape = draw(&mut rng, kinds[slot]);
                push(t, kinds[slot], shape, None, None);
            }
        }
        let shape = draw(&mut rng, 2);
        push(BATCH, 2, shape, None, None);
    }
    // The open loop's schedule is whole blocks, its rounds together at
    // most `seconds` (at least one block).
    let per_round = OFFERED_PER_S * seconds as f64 / OPEN_ROUNDS as f64;
    let slots = LONG_BLOCK * ((per_round as usize / LONG_BLOCK).max(1));
    let (mut kinds, mut tenants) = (Vec::new(), Vec::new());
    let schedule: Vec<_> = (0..slots)
        .map(|_| {
            if kinds.is_empty() {
                kinds = rng.shuffled(&SHORT_BLOCK);
                kinds.insert(LONG_AT, 2);
            }
            let k = kinds.pop().expect("refilled");
            let t = if k == 2 {
                BATCH
            } else {
                if tenants.is_empty() {
                    tenants = rng.shuffled(&[0, 1, 2]);
                }
                tenants.pop().expect("refilled")
            };
            (t, k, draw(&mut rng, k))
        })
        .collect();
    // Evenly spaced sends: the seed varies which job comes when, not how
    // bursty the arrivals are.
    let spacing = Duration::from_secs_f64(1.0 / OFFERED_PER_S);
    for r in 0..OPEN_ROUNDS {
        for (slot, &(t, k, shape)) in schedule.iter().enumerate() {
            let due = spacing * (r * slots + slot + 1) as u32;
            push(t, k, shape, Some(due), Some(slot));
        }
    }
    jobs
}

/// Input floats of one tenant.
fn input(seed: u64, tenant: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(tenant as u64));
    (0..N_IN)
        .flat_map(|_| (rng.below(1 << 16) as f32 / 65536.0).to_le_bytes())
        .collect()
}

fn kernel(programs: &[Program], job: &Job, x: Buffer, y: Buffer) -> KernelHandle {
    let kind = &KINDS[job.kind];
    let mut k = programs[kind.source]
        .kernel(kind.kernel)
        .expect("benchmark kernel exists");
    k.set_arg_buffer(0, x).set_arg_buffer(1, y);
    if kind.source == 0 {
        k.set_arg_i32(2, job.iters).set_arg_f32(3, job.a);
    } else {
        k.set_arg_i32(2, job.n as i32);
    }
    k
}

fn nd(job: &Job) -> NdRange {
    NdRange::dim1(job.n, KINDS[job.kind].local)
}

/// A started server with staged buffers and bound kernels.
struct Staged {
    server: Server,
    sessions: Vec<Session>,
    programs: Vec<Program>,
    /// Per tenant: buffer handles in allocation order.
    buffers: Vec<Vec<Buffer>>,
    kernels: Vec<KernelHandle>,
}

fn stage(jobs: &[Job], seed: u64) -> Result<Staged, ServeError> {
    let cfg = ServerConfig {
        device_slots: 1,
        slice_cycles: SLICE_CYCLES,
        ..ServerConfig::default()
    };
    // Only attaching a cache directory can fail, and none is configured.
    let server = Server::new(cfg).expect("server without a cache directory starts");
    let mut sessions = Vec::new();
    let mut buffers = Vec::new();
    let mut programs = Vec::new();
    for t in 0..TENANTS {
        let s = server.connect(&format!("tenant{t}"))?;
        programs = SOURCES
            .iter()
            .map(|src| s.build_program(src, &[]))
            .collect::<Result<_, _>>()?;
        let x = s.create_buffer(N_IN * 4)?;
        s.write_buffer(x, &input(seed, t))?;
        let mut bufs = vec![x];
        for j in jobs.iter().filter(|j| j.tenant == t) {
            bufs.push(s.create_buffer(j.n as usize * 4)?);
        }
        sessions.push(s);
        buffers.push(bufs);
    }
    let kernels = jobs
        .iter()
        .map(|j| kernel(&programs, j, buffers[j.tenant][0], buffers[j.tenant][j.out]))
        .collect();
    Ok(Staged {
        server,
        sessions,
        programs,
        buffers,
        kernels,
    })
}

/// What one tenant's client thread observed.
#[derive(Default)]
struct Client {
    /// Settled (or rejected) results by job.
    outputs: Vec<(usize, Result<JobOutput, ServeError>)>,
    /// Admitted jobs in enqueue order (= execution order).
    order: Vec<usize>,
    /// `(job, start, end)` of each `Session::enqueue` call.
    enqueues: Vec<(usize, Instant, Instant)>,
    /// Open loop: `(job, turnaround)` of each job that settled `Ok`.
    turnaround: Vec<(usize, Duration)>,
    lateness_ms: Vec<f64>,
    unwatched_ms: Vec<f64>,
    rejected: usize,
}

impl Client {
    fn enqueue(&mut self, st: &Staged, jobs: &[Job], j: usize) -> Option<JobId> {
        let started = Instant::now();
        let r = st.sessions[jobs[j].tenant].enqueue(&st.kernels[j], nd(&jobs[j]));
        self.enqueues.push((j, started, Instant::now()));
        match r {
            Ok(id) => {
                self.order.push(j);
                Some(id)
            }
            Err(e) => {
                self.rejected += 1;
                self.outputs.push((j, Err(e)));
                None
            }
        }
    }

    /// A burst round: all of this tenant's jobs enqueued at once, then
    /// each waited for.
    fn burst(&mut self, st: &Staged, jobs: &[Job], mine: &[usize]) {
        let ids: Vec<(usize, JobId)> = mine
            .iter()
            .filter_map(|&j| self.enqueue(st, jobs, j).map(|id| (j, id)))
            .collect();
        for (j, id) in ids {
            self.outputs.push((j, st.sessions[jobs[j].tenant].wait(id)));
        }
    }

    /// The open loop: sends this tenant's jobs on schedule and, between
    /// sends, blocks on its oldest pending job (`Session::wait_deadline`
    /// until the next send is due), so a completion is seen as soon as
    /// the server signals it. Send times, turnaround and lateness are in
    /// the loop's reference time (`Clock`); waiting stops `give_up` into
    /// it.
    fn open(
        &mut self,
        st: &Staged,
        jobs: &[Job],
        mine: &[usize],
        give_up: Duration,
        busy: &OpenLoop,
    ) {
        let Some(&first) = mine.first() else { return };
        let session = &st.sessions[jobs[first].tenant];
        let due = |j: usize| jobs[j].due.expect("open-loop job has a send time");
        let now = || busy.clock().now();
        let wall = |d: Duration| busy.clock().wall(d);
        let mut pending = std::collections::VecDeque::new();
        let mut next = 0;
        // Since when pending jobs have gone unwatched (no wait running):
        // a completion meanwhile is seen late by up to that gap.
        let mut unwatched: Option<Instant> = None;
        loop {
            let t = now();
            if next < mine.len() && t >= due(mine[next]) {
                let j = mine[next];
                next += 1;
                self.lateness_ms.push((t - due(j)).as_secs_f64() * 1e3);
                busy.unseen.fetch_add(1, SeqCst);
                busy.sends.fetch_add(1, SeqCst);
                match self.enqueue(st, jobs, j) {
                    Some(id) => pending.push_back((j, id)),
                    None => _ = busy.unseen.fetch_sub(1, SeqCst),
                }
                continue;
            }
            if t > give_up {
                break;
            }
            let until = mine.get(next).map_or(give_up, |&j| due(j));
            // The queue is in order, so only the oldest job can be next.
            let Some(&(j, id)) = pending.front() else {
                if next == mine.len() {
                    break;
                }
                std::thread::sleep(wall(until.saturating_sub(t)));
                continue;
            };
            if let Some(since) = unwatched.take() {
                self.unwatched_ms.push(since.elapsed().as_secs_f64() * 1e3);
            }
            let r = session.wait_deadline(id, wall(until.saturating_sub(t)));
            if !matches!(r, Err(ServeError::WaitTimeout { .. })) {
                if r.is_ok() {
                    self.turnaround.push((j, now() - due(j)));
                }
                self.outputs.push((j, r));
                pending.pop_front();
                busy.unseen.fetch_sub(1, SeqCst);
            }
            unwatched = (!pending.is_empty()).then(Instant::now);
        }
    }
}

/// What the serve phases observed, merged over the tenants' clients.
struct Served {
    /// Per job: its settled result (`None` if it never settled).
    outputs: Vec<Option<Result<JobOutput, ServeError>>>,
    /// Per tenant: admitted jobs in enqueue order (= execution order).
    order: Vec<Vec<usize>>,
    /// Burst capacity per round (jobs settled `Ok` per second), at the
    /// reference speed and raw.
    burst_rates: Vec<f64>,
    raw_burst_rates: Vec<f64>,
    /// Open loop: `(job, turnaround ms)` of each job that settled `Ok`,
    /// in reference time.
    turnaround: Vec<(usize, f64)>,
    /// Host-speed samples (ms of the reference computation) taken while
    /// the server was idle during the open loop.
    open_speed: Vec<f64>,
    /// Open-loop jobs: the jobs after the burst rounds.
    open: std::ops::Range<usize>,
    speed_samples: usize,
    rejected: usize,
    lateness_ms: Vec<f64>,
    unwatched_ms: Vec<f64>,
    enqueues: Vec<(usize, Instant, Instant)>,
}

/// Runs `work` for each tenant's client on a thread of its own; returns
/// when the last client finished.
fn with_clients(clients: &mut [Client], work: impl Fn(usize, &mut Client) + Sync) -> Instant {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, c)| {
                let work = &work;
                s.spawn(move || {
                    work(t, c);
                    Instant::now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .max()
            .expect("at least one client")
    })
}

/// What the open loop's clients share with the main thread, so it can
/// tell when the server is idle and keep the loop's clock.
struct OpenLoop {
    /// Jobs sent whose result no client has seen yet.
    unseen: AtomicUsize,
    /// Sends so far.
    sends: AtomicUsize,
    /// Clients still running.
    clients: AtomicUsize,
    clock: Mutex<Clock>,
}

impl OpenLoop {
    fn clock(&self) -> std::sync::MutexGuard<'_, Clock> {
        self.clock.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The open loop's clock. It keeps reference time (see `calib`): it runs
/// at the host's speed as last sampled, so the offered rate is fixed at
/// the reference speed, as capacity is reported. The host's speed shifts
/// by half or more for seconds at a time; with a clock in host time, the
/// same rate would leave the server a third idle in one stretch and
/// saturated in the next.
struct Clock {
    /// Host time and reference time when `factor` was last set.
    at: Instant,
    time: Duration,
    /// Reference time per host second.
    factor: f64,
}

impl Clock {
    fn now(&self) -> Duration {
        self.time + self.at.elapsed().mul_f64(self.factor)
    }

    /// Host time that spans `d` of reference time.
    fn wall(&self, d: Duration) -> Duration {
        d.div_f64(self.factor)
    }

    fn set_factor(&mut self, factor: f64) {
        self.time = self.now();
        self.at = Instant::now();
        self.factor = factor;
    }
}

/// Host-speed samples taken while the server is idle.
fn idle_speed() -> Vec<f64> {
    (0..SPEED_SAMPLES).map(|_| calib::sample()).collect()
}

/// Factor to the reference speed for work between two idle gaps: from
/// the mean of the gaps' medians.
fn around(before: &[f64], after: &[f64]) -> f64 {
    calib::factor((stats::median(before) + stats::median(after)) / 2.0)
}

/// Runs both phases with one client thread per tenant session: the
/// tenants are independent users, so one tenant's blocked `enqueue`
/// delays only that tenant's own sends.
fn serve(st: &Staged, jobs: &[Job]) -> Served {
    let mut clients: Vec<Client> = (0..TENANTS).map(|_| Client::default()).collect();
    let mine = |t: usize, js: &[usize]| -> Vec<usize> {
        js.iter()
            .copied()
            .filter(|&j| jobs[j].tenant == t)
            .collect()
    };
    let settled_ok = |clients: &[Client], js: &[usize]| {
        clients
            .iter()
            .flat_map(|c| &c.outputs)
            .filter(|(j, r)| js.contains(j) && r.is_ok())
            .count()
    };
    let per_round = BURST_ROUND_JOBS;
    let (mut burst_rates, mut raw_burst_rates) = (Vec::new(), Vec::new());
    let mut gap = idle_speed();
    let mut speed_samples = gap.len();
    for r in 0..BURST_ROUNDS {
        let round: Vec<usize> = (r * per_round..(r + 1) * per_round).collect();
        let started = Instant::now();
        let end = with_clients(&mut clients, |t, c| c.burst(st, jobs, &mine(t, &round)));
        let raw_s = (end - started).as_secs_f64();
        let after = idle_speed();
        speed_samples += after.len();
        let ok = settled_ok(&clients, &round) as f64;
        raw_burst_rates.push(ok / raw_s);
        burst_rates.push(ok / (raw_s * around(&gap, &after)));
        gap = after;
    }
    let open = BURST_ROUNDS * per_round..jobs.len();
    let open_jobs: Vec<usize> = open.clone().collect();
    let last_due = jobs.last().and_then(|j| j.due).unwrap_or_default();
    let give_up = last_due + Duration::from_secs(10);
    let busy = OpenLoop {
        unseen: AtomicUsize::new(0),
        sends: AtomicUsize::new(0),
        clients: AtomicUsize::new(TENANTS),
        clock: Mutex::new(Clock {
            at: Instant::now(),
            time: Duration::ZERO,
            factor: calib::factor(stats::median(&gap)),
        }),
    };
    // The main thread samples the host's speed throughout the open loop,
    // but only while the server is idle: a sample is kept only if no job
    // was outstanding when it started and none was sent while it ran. The
    // clock runs at the median of the latest samples.
    let mut open_speed = gap;
    std::thread::scope(|s| {
        for (t, c) in clients.iter_mut().enumerate() {
            let (busy, mine) = (&busy, mine(t, &open_jobs));
            s.spawn(move || {
                c.open(st, jobs, &mine, give_up, busy);
                busy.clients.fetch_sub(1, SeqCst);
            });
        }
        while busy.clients.load(SeqCst) > 0 {
            let sends = busy.sends.load(SeqCst);
            if busy.unseen.load(SeqCst) == 0 {
                let ms = calib::sample();
                if busy.sends.load(SeqCst) == sends {
                    open_speed.push(ms);
                    let latest = &open_speed[open_speed.len().saturating_sub(SPEED_SAMPLES)..];
                    busy.clock()
                        .set_factor(calib::factor(stats::median(latest)));
                }
            }
            std::thread::sleep(SPEED_EVERY);
        }
    });
    speed_samples += open_speed.len();
    let mut out = Served {
        open_speed,
        outputs: (0..jobs.len()).map(|_| None).collect(),
        order: Vec::new(),
        burst_rates,
        raw_burst_rates,
        turnaround: Vec::new(),
        open,
        speed_samples,
        rejected: 0,
        lateness_ms: Vec::new(),
        unwatched_ms: Vec::new(),
        enqueues: Vec::new(),
    };
    for c in clients {
        for (j, r) in c.outputs {
            out.outputs[j] = Some(r);
        }
        out.order.push(c.order);
        out.turnaround.extend(
            c.turnaround
                .into_iter()
                .map(|(j, d)| (j, d.as_secs_f64() * 1e3)),
        );
        out.rejected += c.rejected;
        out.lateness_ms.extend(c.lateness_ms);
        out.unwatched_ms.extend(c.unwatched_ms);
        out.enqueues.extend(c.enqueues);
    }
    out
}

/// A solo context with the same allocations, in the same order, as one
/// tenant's session.
fn solo_context(jobs: &[Job], tenant: usize, seed: u64) -> (Context, Vec<Buffer>) {
    let mut ctx = Context::new(Device::system_a());
    let x = ctx.create_buffer(N_IN * 4);
    ctx.write_buffer(x, &input(seed, tenant))
        .expect("input fits its buffer");
    let mut bufs = vec![x];
    for j in jobs.iter().filter(|j| j.tenant == tenant) {
        bufs.push(ctx.create_buffer(j.n as usize * 4));
    }
    (ctx, bufs)
}

/// How a replay runs one launch on a solo context.
enum Replay {
    /// `Context::enqueue_ndrange`.
    Enqueue,
    /// `Machine::new` + `Machine::run`, each timed as a span.
    Machine,
    /// The served slicing: `Machine::new` → `run_with(cycle deadline)`,
    /// then per slice a fresh `Machine::new` + `restore`.
    Sliced,
}

fn replay_one(
    ctx: &mut Context,
    k: &KernelHandle,
    nd: NdRange,
    how: &Replay,
    tr: &mut Tracer,
    id: u64,
) -> Result<SimResult, String> {
    if let Replay::Enqueue = how {
        return ctx
            .enqueue_ndrange(k, nd)
            .map(|s| s.sim)
            .map_err(|e| e.to_string());
    }
    let args = ctx.prepare_launch(k, nd).map_err(|e| e.to_string())?;
    let ck = k.compiled();
    let cfg = ctx.launch_config(ck);
    let gm = ctx.global_memory_mut();
    let mut m = tr
        .span("sim.elab", id, || {
            Machine::new(&ck.kernel, &ck.datapath, &cfg, nd, &args)
        })
        .map_err(|e| e.to_string())?;
    if let Replay::Machine = how {
        return tr
            .span("sim.loop", id, || m.run(gm))
            .map_err(|e| e.to_string());
    }
    let mut ctl = RunControl::unlimited();
    ctl.cycle_deadline = Some(SLICE_CYCLES);
    loop {
        match tr.span("sim.run_with", id, || m.run_with(gm, &ctl)) {
            Ok(sim) => return Ok(sim),
            Err(SimError::DeadlineExceeded { cycle, snapshot }) => {
                // `run_with` took the snapshot it returns; one more of the
                // same state, timed alone, prices that share of the slice.
                tr.span("sim.snapshot", id, || m.snapshot(gm));
                m = tr
                    .span("sim.restore", id, || {
                        let mut fresh = Machine::new(&ck.kernel, &ck.datapath, &cfg, nd, &args)?;
                        fresh.restore(&snapshot, gm).map(|()| fresh)
                    })
                    .map_err(|e| e.to_string())?;
                ctl.cycle_deadline = Some(cycle + SLICE_CYCLES);
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// The served run a replay checks against.
struct Check<'a> {
    jobs: &'a [Job],
    programs: &'a [Program],
    served: &'a Served,
    /// Read-back output bytes per settled job.
    bytes: &'a [Option<Vec<u8>>],
    seed: u64,
}

/// One way of replaying a tenant's jobs, with its own solo context.
struct Lane<'t> {
    how: Replay,
    tr: &'t mut Tracer,
    results: &'t mut [Option<SimResult>],
    /// Host seconds this lane spent in its launches.
    secs: f64,
}

impl<'t> Lane<'t> {
    fn new(how: Replay, tr: &'t mut Tracer, results: &'t mut [Option<SimResult>]) -> Lane<'t> {
        Lane {
            how,
            tr,
            results,
            secs: 0.0,
        }
    }
}

/// Replays one tenant's settled jobs in served order, each job through
/// every lane in turn (so the lanes see the same host conditions), and
/// checks each job's cycles and output bytes against the served ones.
fn replay(c: &Check, tenant: usize, lanes: &mut [Lane], rep: &mut Report) {
    let (jobs, served) = (c.jobs, c.served);
    let mut contexts: Vec<_> = lanes
        .iter()
        .map(|_| solo_context(jobs, tenant, c.seed))
        .collect();
    for &j in &served.order[tenant] {
        let job = &jobs[j];
        for (lane, (ctx, bufs)) in lanes.iter_mut().zip(&mut contexts) {
            let k = kernel(c.programs, job, bufs[0], bufs[job.out]);
            let started = Instant::now();
            let sim = replay_one(ctx, &k, nd(job), &lane.how, lane.tr, j as u64);
            lane.secs += started.elapsed().as_secs_f64();
            let got = ctx.read_buffer(bufs[job.out]).expect("solo buffer handle");
            match (&served.outputs[j], sim) {
                (Some(Ok(o)), Ok(sim)) => {
                    if o.cycles != sim.cycles || o.retired != sim.retired {
                        rep.mismatch(format!(
                            "serve job {j} ({}): served {} cycles, solo {}",
                            KINDS[job.kind].name, o.cycles, sim.cycles
                        ));
                    } else if c.bytes[j].as_deref() != Some(&got[..]) {
                        rep.mismatch(format!("serve job {j}: output bytes differ from solo run"));
                    }
                    lane.results[j] = Some(sim);
                }
                (_, Err(e)) => rep.mismatch(format!("serve job {j}: solo run failed: {e}")),
                (Some(Err(e)), Ok(sim)) => {
                    if !is_rejection(e) {
                        rep.mismatch(format!(
                            "serve job {j}: served run failed ({e}), solo run succeeded"
                        ));
                    }
                    lane.results[j] = Some(sim);
                }
                // Never settled: counted where the results are collected.
                (None, Ok(sim)) => lane.results[j] = Some(sim),
            }
        }
    }
}

/// Admission control turned the job away (backpressure). It is a failed
/// operation but not a wrong result; any other error is.
fn is_rejection(e: &ServeError) -> bool {
    matches!(e, ServeError::QueueFull { .. } | ServeError::Shedding)
}

/// The open loop's turnaround samples in ms: one per scheduled job, the
/// median of its copies' turnarounds. A copy that failed or was turned
/// away never turns around: it is an infinitely late copy, so shedding
/// or faulting jobs cannot make the percentiles look better.
fn slot_samples(jobs: &[Job], served: &Served) -> Vec<f64> {
    let mut done = vec![f64::INFINITY; jobs.len()];
    for &(j, ms) in &served.turnaround {
        done[j] = ms;
    }
    let mut copies = vec![Vec::new(); served.open.len() / OPEN_ROUNDS];
    for j in served.open.clone() {
        copies[jobs[j].slot.expect("open-loop job has a slot")].push(done[j]);
    }
    copies.iter().map(|c| stats::median(c)).collect()
}

/// Σ sum and Σ count of a per-tenant histogram in the global registry.
fn hist(name: &str) -> (u64, u64) {
    (0..TENANTS).fold((0, 0), |(s, c), t| {
        let h = soff_obs::global().histogram(name, &[("tenant", &format!("tenant{t}"))]);
        (s + h.sum(), c + h.count())
    })
}

pub fn run(args: &Args, process_start: Instant, rep: &mut Report, layers: &mut Layers) {
    let jobs = plan(args.seed, args.seconds);
    let (mut setup, mut setup_ref) = (Vec::new(), Vec::new());
    let mut staged = None;
    soff_runtime::cache::reset_stats();
    for k in 0..SETUP_REPS {
        let t = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        // Drop (shut down) the previous server before starting the next.
        drop(staged.take());
        soff_runtime::cache::clear();
        match stage(&jobs, args.seed) {
            Ok(s) => staged = Some(s),
            Err(e) => {
                rep.mismatch(format!("serve set-up failed: {e}"));
                return;
            }
        }
        setup.push(t.elapsed().as_secs_f64());
        setup_ref.push(setup[k] * calib::factor(calib::measure(3)));
    }
    let setup_hit_ratio = soff_runtime::cache::stats().hit_rate();
    let st = staged.expect("set-up ran");
    rep.raw("setup_s", stats::median(&setup), "s");
    rep.e2e("setup_s", stats::median(&setup_ref), "s");

    let (wait0, slice0) = (
        hist("soff_serve_queue_wait_us"),
        hist("soff_serve_slice_us"),
    );
    let mut tr = args.trace.then(Tracer::new);
    let served = serve(&st, &jobs);
    if let Some(tr) = tr.as_mut() {
        for &(j, start, end) in &served.enqueues {
            tr.record("serve.enqueue", j as u64, start, end);
        }
    }
    let (wait1, slice1) = (
        hist("soff_serve_queue_wait_us"),
        hist("soff_serve_slice_us"),
    );
    let stats_now = st.server.stats();

    rep.attempted += jobs.len() as u64;
    let mut settled = 0u64;
    for (j, o) in served.outputs.iter().enumerate() {
        match o {
            Some(Ok(_)) => settled += 1,
            Some(Err(e)) if is_rejection(e) => {
                rep.failed += 1;
                eprintln!("perfbench: serve job {j} was turned away: {e}");
            }
            // An admitted job: the replay below records it as a mismatch.
            Some(Err(e)) => eprintln!("perfbench: serve job {j} failed: {e}"),
            None => rep.mismatch(format!("serve job {j}: never settled")),
        }
    }
    let bytes: Vec<Option<Vec<u8>>> = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| {
            matches!(served.outputs[j], Some(Ok(_))).then(|| {
                st.sessions[job.tenant]
                    .read_buffer(st.buffers[job.tenant][job.out])
                    .expect("staged buffer reads back")
            })
        })
        .collect();

    // Open-loop turnaround: one sample per scheduled job.
    let open_jobs = served.open.len();
    let tt = slot_samples(&jobs, &served);
    rep.info(
        "serve.open_loop_speed_factor",
        calib::factor(stats::median(&served.open_speed)),
    );
    rep.info("serve.speed_samples", served.speed_samples);
    let copies: Vec<f64> = served.turnaround.iter().map(|&(_, ms)| ms).collect();
    let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .map(|p| {
            format!(
                "p{}={:.1}",
                p * 100.0,
                stats::nearest_rank(&copies, *p).unwrap_or(0.0)
            )
        })
        .collect();
    rep.info("serve.copy_turnaround_quantiles_ms", q.join(" "));
    rep.info("serve.open_jobs", open_jobs);
    rep.info("serve.open_rounds", OPEN_ROUNDS);
    rep.info("serve.burst_jobs", BURST_ROUNDS * BURST_ROUND_JOBS);
    rep.info("serve.rejected", served.rejected);
    rep.info("serve.settled_open_jobs", served.turnaround.len());
    rep.info("serve.turnaround_samples", tt.len());
    let beyond_p95 = stats::beyond(&tt, 0.95);
    rep.info("serve.turnaround_samples_beyond_p95", beyond_p95);
    rep.info("serve.gen_lag_p50_ms", stats::median(&served.lateness_ms));
    rep.info(
        "serve.gen_lag_p95_ms",
        stats::nearest_rank(&served.lateness_ms, 0.95).unwrap_or(0.0),
    );
    rep.info(
        "serve.observe_gap_p50_ms",
        stats::median(&served.unwatched_ms),
    );
    rep.info(
        "serve.observe_gap_p95_ms",
        stats::nearest_rank(&served.unwatched_ms, 0.95).unwrap_or(0.0),
    );
    let settled_slots = tt.iter().filter(|ms| ms.is_finite()).count();
    if settled_slots < MIN_OPEN_JOBS || beyond_p95 < 10 {
        rep.mismatch(format!(
            "serve: {settled_slots} open-loop turnaround samples settled, {beyond_p95} beyond \
             the p95 (need {MIN_OPEN_JOBS} and 10): no p95 to report"
        ));
    }
    let capacity = stats::median(&served.burst_rates);
    rep.raw("ops_per_s", stats::median(&served.raw_burst_rates), "1/s");
    let (p50, p95) = (
        stats::median(&tt),
        stats::nearest_rank(&tt, 0.95).unwrap_or(f64::INFINITY),
    );
    if !p95.is_finite() {
        let misses = open_jobs - served.turnaround.len();
        rep.mismatch(format!(
            "serve: {misses} of {open_jobs} open-loop jobs failed: the p95 is a failed job"
        ));
    }
    // The same samples as the percentiles, against the fixed limit.
    let within = tt.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS).count();
    let slo = within as f64 / tt.len().max(1) as f64;
    rep.e2e("ops_per_s", capacity, "1/s");
    rep.e2e("op_ms", p50, "ms");
    rep.e2e("op_ms_p95", p95, "ms");
    rep.alias("serve.burst_jobs_per_s", capacity, "1/s");
    rep.alias("serve.turnaround_p50_ms", p50, "ms");
    rep.alias("serve.turnaround_p95_ms", p95, "ms");
    rep.alias("serve.slo_share", slo, "share");
    rep.info("serve.latency_limit_ms", LATENCY_LIMIT_MS);

    // Every settled job must equal a solo run of the same launch. A
    // traced run replays tenant 0 untraced and traced in lockstep (for the
    // tracing overhead), the other tenants traced only, and every tenant
    // sliced as the server slices.
    let check = Check {
        jobs: &jobs,
        programs: &st.programs,
        served: &served,
        bytes: &bytes,
        seed: args.seed,
    };
    let none = || -> Vec<Option<SimResult>> { (0..jobs.len()).map(|_| None).collect() };
    let (mut solo, mut traced_solo, mut sliced) = (none(), none(), none());
    let mut no_spans = Tracer::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    // Shares the traced run's time origin, so its spans merge with their
    // own start, end and parent.
    let mut sliced_tr = tr.as_ref().map_or_else(Tracer::new, Tracer::sibling);
    for t in 0..TENANTS {
        let mut lanes = Vec::new();
        if t == 0 || tr.is_none() {
            lanes.push(Lane::new(Replay::Enqueue, &mut no_spans, &mut solo));
        }
        if let Some(tr) = tr.as_mut() {
            lanes.push(Lane::new(Replay::Machine, tr, &mut traced_solo));
            lanes.push(Lane::new(Replay::Sliced, &mut sliced_tr, &mut sliced));
        }
        replay(&check, t, &mut lanes, rep);
        if t == 0 && lanes.len() == 3 {
            (untraced_s, traced_s) = (lanes[0].secs, lanes[1].secs);
        }
    }
    let reference = if tr.is_some() { &traced_solo } else { &solo };
    let cycles: u64 = reference.iter().flatten().map(|r| r.cycles).sum();
    rep.info("serve.cycles", cycles);
    for (i, kind) in KINDS.iter().enumerate() {
        let c: Vec<f64> = jobs
            .iter()
            .zip(reference)
            .filter(|(j, _)| j.kind == i)
            .filter_map(|(_, r)| r.as_ref().map(|r| r.cycles as f64))
            .collect();
        rep.info(
            &format!("serve.kind.{}", kind.name),
            format!("{} jobs, {} mean cycles", c.len(), stats::mean(&c)),
        );
    }
    let Some(mut tr) = tr else { return };
    if solo
        .iter()
        .zip(&traced_solo)
        .any(|(u, t)| u.is_some() && u != t)
    {
        rep.mismatch("serve: traced solo results differ from untraced".to_string());
    }
    if sliced != traced_solo {
        rep.mismatch("serve: sliced replay results differ from solo".to_string());
    }
    let solo_run_ns = tr.totals().get("sim.loop").copied().unwrap_or(0);
    let totals = sliced_tr.totals();
    let ms = |n: &str| totals.get(n).copied().unwrap_or(0) as f64 * 1e-6;
    layers.set("sim.elab_ms", ms("sim.elab"));
    layers.set("sim.loop_ms", ms("sim.run_with") - ms("sim.snapshot"));
    layers.set("sim.snapshot_ms", ms("sim.snapshot"));
    layers.set("sim.restore_ms", ms("sim.restore"));
    layers.set("sim.cycles", cycles as f64);
    layers.set("runtime.cache_hit_ratio", setup_hit_ratio);
    let enqueue_us: Vec<f64> = served
        .enqueues
        .iter()
        .map(|(_, s, e)| (*e - *s).as_secs_f64() * 1e6)
        .collect();
    layers.set("serve.enqueue_us", stats::mean(&enqueue_us));
    let mean_ms = |(s0, c0): (u64, u64), (s1, c1): (u64, u64)| {
        (s1 - s0) as f64 * 1e-3 / (c1 - c0).max(1) as f64
    };
    layers.set("serve.queue_wait_mean_ms", mean_ms(wait0, wait1));
    layers.set("serve.slice_mean_ms", mean_ms(slice0, slice1));
    layers.set(
        "serve.slices_per_job",
        stats_now.slices as f64 / settled.max(1) as f64,
    );
    layers.set("serve.preemptions", stats_now.preemptions as f64);
    layers.set(
        "serve.retries",
        stats_now.tenants.iter().map(|t| t.retries).sum::<u64>() as f64,
    );
    let served_slice_ns = (slice1.0 - slice0.0) as f64 * 1e3;
    layers.set(
        "serve.slice_overhead",
        served_slice_ns / solo_run_ns.max(1) as f64,
    );
    layers.set("serve.fairness", stats_now.completion_fairness());
    layers.set("serve.gen_lag_ms", stats::mean(&served.lateness_ms));
    layers.set("serve.observe_gap_ms", stats::mean(&served.unwatched_ms));
    layers.set("serve.slo_share", slo);
    layers.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    // Keep the slicing spans with the serve-phase and solo spans.
    tr.absorb(sliced_tr);
    crate::write_spans(args, &tr);
}
