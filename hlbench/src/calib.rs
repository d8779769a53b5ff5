//! Host-speed references, timed between slots of an untraced run.
//!
//! The host this benchmark was tuned on drifts by ±15–35% over minutes,
//! and every metric of a run drifts with it. Across 15 runs of unchanged
//! code, each metric's run value correlated with the run's median of
//! either reference below at r = 0.74–0.86. Dividing the timings by the
//! run's [`slowness`] cut their run-to-run variation by 20–50%.
//!
//! Both references use only the standard library and the kernel, never
//! the repository's code, so no change to the program can move them,
//! short of leaving threads busy while the server is idle.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Typical reference values on the 2-vCPU host the bounds in
/// `BENCHMARK.json` were set on. They only fix the scale: on another
/// host, normalized values are off by a constant factor, which cancels
/// between the two sides of a comparison.
pub const CPU_NOMINAL_MS: f64 = 4.7;
pub const WAKE_NOMINAL_US: f64 = 28.0;

/// How much slower than nominal the host ran during a run: the
/// geometric mean of the two references' medians, each over its
/// nominal value. Timings divide by it; rates multiply by it.
pub fn slowness(cpu_ms: &[f64], wake_us: &[f64]) -> f64 {
    let cpu = crate::stats::median(cpu_ms) / CPU_NOMINAL_MS;
    let wake = crate::stats::median(wake_us) / WAKE_NOMINAL_US;
    (cpu * wake).sqrt()
}

/// A loopback echo peer plus the CPU kernel.
pub struct Reference {
    stream: TcpStream,
    echo: Option<JoinHandle<()>>,
}

fn kernel() -> u64 {
    const N: u64 = 1 << 15;
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(N as usize);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..N {
        x = crate::workload::mix(x, i);
        map.insert(x, i);
    }
    let mut acc = 0u64;
    let mut y = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..N {
        y = crate::workload::mix(y, i);
        acc = acc.wrapping_add(map.get(&y).copied().unwrap_or(1));
    }
    let mut v: Vec<u64> = (0..2 * N).map(|i| crate::workload::mix(i, 7)).collect();
    v.sort_unstable();
    acc.wrapping_add(v[N as usize])
}

impl Reference {
    pub fn start() -> std::io::Result<Reference> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let echo = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; 64];
            while let Ok(n @ 1..) = peer.read(&mut buf) {
                if peer.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Reference {
            stream,
            echo: Some(echo),
        })
    }

    /// Median of three timings of a fixed hashing-and-sorting kernel, ms.
    pub fn cpu_ms(&self) -> f64 {
        let mut times = [0.0f64; 3];
        for t in &mut times {
            let start = Instant::now();
            black_box(kernel());
            *t = start.elapsed().as_secs_f64() * 1e3;
        }
        times.sort_by(|a, b| a.total_cmp(b));
        times[1]
    }

    /// Median round trip of 200 one-byte TCP loopback ping-pongs, µs:
    /// the wakeup-and-syscall path a small request rides on.
    pub fn wake_us(&mut self) -> f64 {
        let mut times = Vec::with_capacity(200);
        let mut byte = [7u8; 1];
        for _ in 0..200 {
            let start = Instant::now();
            if self.stream.write_all(&byte).is_err() || self.stream.read_exact(&mut byte).is_err() {
                return f64::NAN;
            }
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
        crate::stats::median(&times)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
