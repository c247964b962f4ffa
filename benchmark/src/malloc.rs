//! Pins glibc malloc's thresholds, so that a repetition's time does not
//! depend on what the process allocated and freed before it.
//!
//! Left alone, glibc moves its mmap and trim thresholds with every large
//! chunk freed, so whether a repetition's buffers are recycled from the
//! heap or mapped, faulted in page by page and unmapped again depends on
//! the allocation history: three set-ups or one, rates measured first or
//! not. Here that was a quarter to a third of a repetition (k-means 0.93 s
//! against 0.53 s pinned), and a run and its traced twin disagreed by as
//! much. With the thresholds fixed, freed memory stays in the heap and
//! every repetition after the warm-up starts from the same allocator
//! state. `os.minor_faults` and `os.cpu_sys_s` show what is left.

/// Fixes the thresholds for the life of the process and says what was
/// done, for the run's environment lines. Call before the first large
/// allocation.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin() -> String {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // Parameter numbers of <malloc.h>.
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_TOP_PAD: c_int = -2;
    const M_MMAP_MAX: c_int = -4;
    let pinned = [
        // Freed heap is never returned to the kernel.
        ("trim_threshold", M_TRIM_THRESHOLD, c_int::MAX),
        // The heap grows 256 MiB at a time, and a worker thread's arena
        // keeps its emptied 64 MiB heaps up to that much.
        ("top_pad", M_TOP_PAD, 256 << 20),
        // No chunk is mapped on its own while the heap can grow: the
        // largest threshold glibc takes is 32 MiB, and a repetition's
        // 60 MB vectors would still be mapped or not as the heap's free
        // space, left by set-up, happens to allow.
        ("mmap_max", M_MMAP_MAX, 0),
    ];
    let mut said = String::from("glibc, pinned:");
    for (name, param, value) in pinned {
        // SAFETY: `mallopt` is glibc's own function, takes two integers
        // by value and may be called at any time from any thread; it
        // stores the parameter under the allocator's lock.
        if unsafe { mallopt(param, value) } != 1 {
            return format!("glibc refused {name} {value}: times depend on allocation history");
        }
        said.push_str(&format!(" {name} {value}"));
    }
    said
}

/// Fixes nothing where the C library is not glibc.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin() -> String {
    "not glibc, thresholds left alone".to_string()
}
