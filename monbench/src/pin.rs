//! Fixed CPU placement for the rig's threads.
//!
//! Left to the scheduler, the four threads (generator, reader, lane
//! intake, worker) share two cores in a different arrangement on every
//! run, and with it the worker's share of a core, which sets publish
//! time and so evidence age, and the cache state reads meet. On a
//! 2-vCPU host the spread (quartile distance over median, five to ten
//! seeds) of `fleet`'s evidence age was about 0.2 unplaced and 0.05 to
//! 0.1 placed, and of `flood`'s read latency 0.21 and 0.06 to 0.15. The
//! rig therefore gives the worker a core of its own and puts the intake
//! and the two load threads on another (with three or more CPUs, the
//! intake gets its own as well). With a single CPU nothing is pinned.

use std::sync::OnceLock;

/// Where each of the rig's threads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub worker: usize,
    pub intake: usize,
    pub load: usize,
}

/// The CPUs the process may run on, ascending, as read at the first
/// call: every binding goes through [`placement`], which calls this
/// first, so the set is read before anything was pinned.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(sys::allowed)
}

/// The placement on this host.
pub fn placement() -> Option<Placement> {
    plan(allowed())
}

/// CPUs the process was allowed before any thread was pinned.
pub fn host_cpus() -> usize {
    match allowed().len() {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

/// The placement over `cpus` (ascending), if there are at least two.
fn plan(cpus: &[usize]) -> Option<Placement> {
    match *cpus {
        [] | [_] => None,
        [load, worker] => Some(Placement {
            worker,
            intake: load,
            load,
        }),
        [load, .., intake, worker] => Some(Placement {
            worker,
            intake,
            load,
        }),
    }
}

/// Binds the calling thread to `cpu`; threads it spawns afterwards
/// inherit the binding. A refused binding leaves the thread where it
/// was: the run is then only as steady as the scheduler makes it.
pub fn bind_current(cpu: usize) {
    sys::bind_current(cpu);
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` as glibc defines it: 1024 bits.
    const SET_WORDS: usize = 16;
    const SET_BYTES: usize = SET_WORDS * 8;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; SET_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly `SET_BYTES`
        // bytes, the size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..SET_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub fn bind_current(cpu: usize) {
        if cpu >= SET_WORDS * 64 {
            return;
        }
        let mut mask = [0u64; SET_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly `SET_BYTES`
        // bytes, the size passed; pid 0 names the calling thread. A
        // failure is reported through the return value, which the
        // placement may ignore (see `super::bind_current`).
        let _ = unsafe { sched_setaffinity(0, SET_BYTES, mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn bind_current(_cpu: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_gets_a_cpu_of_its_own() {
        assert_eq!(plan(&[]), None);
        assert_eq!(plan(&[3]), None);
        assert_eq!(
            plan(&[0, 1]),
            Some(Placement {
                worker: 1,
                intake: 0,
                load: 0
            })
        );
        assert_eq!(
            plan(&[2, 5, 7, 9]),
            Some(Placement {
                worker: 9,
                intake: 7,
                load: 2
            })
        );
    }
}
