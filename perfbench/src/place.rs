//! Moves the calling thread to a CPU without pinning it there.
//!
//! On a host whose CPUs each slow down for tens of seconds at a time (a
//! vCPU whose physical core another tenant shares), a single-threaded run
//! left on one CPU measures that CPU's state. Moving the thread to each
//! allowed CPU in turn, pass by pass, spreads a run over all of them. The
//! thread's affinity is put back at once, so it is never pinned: threads
//! the program starts may run on every allowed CPU, and a CPU-bound thread
//! that does not block stays where it was moved.

/// A CPU set as glibc's `cpu_set_t` lays it out: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order; empty when
/// they cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    affinity().map_or_else(Vec::new, |mask| {
        (0..mask.len() * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Moves the calling thread to `cpu` and restores its affinity. False when
/// the thread could not be moved; its affinity is unchanged then too.
pub fn move_to(cpu: usize) -> bool {
    let Some(allowed) = affinity() else {
        return false;
    };
    let mut one: CpuMask = [0; 16];
    match one.get_mut(cpu / 64) {
        Some(word) => *word = 1 << (cpu % 64),
        None => return false,
    }
    // Setting the affinity of the running thread migrates it before the
    // call returns; restoring the old set leaves it where it now runs.
    let moved = set_affinity(&one);
    moved && set_affinity(&allowed)
}

fn affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    (rc == 0).then_some(mask)
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed, which
    // the call only reads, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_leaves_the_thread_unpinned() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        for &cpu in &cpus {
            assert!(move_to(cpu), "cpu {cpu}");
            assert_eq!(allowed_cpus(), cpus);
            // Threads started afterwards may use every CPU too.
            let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(inherited, cpus);
        }
    }

    #[test]
    fn cpus_outside_the_set_are_refused() {
        let cpus = allowed_cpus();
        assert!(!move_to(16 * 64));
        assert_eq!(allowed_cpus(), cpus);
    }
}
