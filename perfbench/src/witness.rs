//! `--witness restore-aliasing`: reproduces a serve-layer defect so the
//! change that fixes it has a check to run. Not a workload.
//!
//! A buffer a tenant creates while its job sits preempted between slices
//! lives only in the tenant's current memory image; the next slice's
//! `Machine::restore` replaces that image with the snapshot taken before
//! the buffer existed. The next `create_buffer` then hands out the same
//! handle again, so two live buffers alias.

use soff_serve::{NdRange, Server, ServerConfig, Session};
use std::time::{Duration, Instant};

const LONG: &str = r#"
__kernel void spin(__global float* y, int iters) {
    int i = get_global_id(0);
    float v = 0.0f;
    for (int k = 0; k < iters; k++) {
        v = v * 0.5f + 1.0f;
    }
    y[i] = v;
}
"#;

fn long_job(s: &Session) -> Result<soff_serve::JobId, String> {
    let p = s.build_program(LONG, &[]).map_err(|e| e.to_string())?;
    let y = s.create_buffer(32 * 4).map_err(|e| e.to_string())?;
    let mut k = s.kernel(&p, "spin").map_err(|e| e.to_string())?;
    k.set_arg_buffer(0, y).set_arg_i32(1, 1200);
    s.enqueue(&k, NdRange::dim1(32, 16))
        .map_err(|e| e.to_string())
}

/// Returns whether the defect showed (`Err` if the scenario itself failed).
pub fn restore_aliasing() -> Result<bool, String> {
    let cfg = ServerConfig {
        device_slots: 1,
        slice_cycles: 2_000,
        ..ServerConfig::default()
    };
    let server = Server::new(cfg).map_err(|e| e.to_string())?;
    let a = server.connect("a").map_err(|e| e.to_string())?;
    let b = server.connect("b").map_err(|e| e.to_string())?;
    let ja = long_job(&a)?;
    let jb = long_job(&b)?;
    // Two preemptions: both jobs have been cut at least once, so a's job
    // now resumes from a snapshot on its next slice.
    let started = Instant::now();
    while server.stats().preemptions < 2 {
        if started.elapsed() > Duration::from_secs(60) {
            return Err("no preemption within 60 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mid = a.create_buffer(64).map_err(|e| e.to_string())?;
    a.wait(ja).map_err(|e| e.to_string())?;
    b.wait(jb).map_err(|e| e.to_string())?;
    let after = a.create_buffer(64).map_err(|e| e.to_string())?;
    println!("info witness.mid_job_buffer {mid:?}");
    println!("info witness.next_buffer {after:?}");
    Ok(mid == after)
}
