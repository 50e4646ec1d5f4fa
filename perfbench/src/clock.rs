//! CPU time of the benchmark process, and the fixed kernel that
//! measures how fast the host is running it.
//!
//! The benchmark's times are CPU time rather than wall time. On a
//! shared virtual machine the hypervisor takes the vCPUs away for
//! stretches (steal time) that wall time counts and process CPU time,
//! under Linux's paravirtual steal accounting, does not. Process CPU
//! time covers every thread: the session's worker pool, the fleet
//! client's connections and the in-process daemon, including threads
//! that have already exited.
//!
//! CPU time still changes with the host: a neighbour on the same
//! physical core or its caches slows the same code by tens of percent
//! from one minute to the next. [`calibrate`] times one fixed piece of
//! work that shares no code with the program under test, so a change
//! to the program moves the sessions' CPU time and leaves the
//! kernel's alone.

// The `struct rusage` layout below is that of 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("asip-perfbench reads CPU time through 64-bit Linux getrusage");

/// `RUSAGE_SELF`.
const SELF: i32 = 0;

extern "C" {
    /// `struct rusage` is two `timeval`s followed by fourteen `long`s.
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// CPU time the process has used, split into user and system time.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub user_ms: f64,
    pub sys_ms: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut raw = [0i64; 18];
        // SAFETY: `raw` is as large as `struct rusage` on 64-bit Linux.
        let rc = unsafe { getrusage(SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let ms = |sec: i64, usec: i64| sec as f64 * 1e3 + usec as f64 / 1e3;
        Usage {
            user_ms: ms(raw[0], raw[1]),
            sys_ms: ms(raw[2], raw[3]),
        }
    }

    /// CPU time used since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }

    pub fn total_ms(self) -> f64 {
        self.user_ms + self.sys_ms
    }
}

/// Table lookups the kernel makes on each thread.
const CAL_ROUNDS: usize = 100_000;

/// CPU ms the kernel takes when run once on each of `threads` threads
/// at the same time.
pub fn calibrate(threads: usize) -> f64 {
    let start = Usage::now();
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || std::hint::black_box(kernel(t as u64))))
            .collect();
        for r in runs {
            r.join().expect("the kernel does not panic");
        }
    });
    Usage::now().since(start).total_ms()
}

/// Table loads at data-dependent indices, mixing and a data-dependent
/// branch over a 256 KiB table.
fn kernel(salt: u64) -> u64 {
    let mut table: Vec<u64> = (0..32 * 1024u64)
        .map(|i| i.wrapping_mul(0x94D0_49BB_1331_11EB) ^ salt)
        .collect();
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..CAL_ROUNDS {
        let v = table[(x as usize) & mask];
        x = (x ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
        if x & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            table[i & mask] = v ^ x;
        }
    }
    acc
}
