//! The pool is persistent: parallel calls reuse long-lived threads instead
//! of spawning fresh ones.
//!
//! This file holds exactly one `#[test]`: it reads the process-wide thread
//! count and sets `RAYON_NUM_THREADS`, which sibling tests in the same
//! binary would disturb.

use std::collections::HashSet;
use std::sync::Mutex;

use rayon::prelude::*;

/// The process's current thread count, from `/proc/self/status`.
fn process_threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

#[test]
fn two_hundred_parallel_calls_spawn_no_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let seen = Mutex::new(HashSet::new());
    let call = |round: usize| {
        let out: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                if i % 16 == 0 {
                    // Give the helpers a chance to claim items.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i * round
            })
            .collect();
        assert_eq!(out, (0..64).map(|i| i * round).collect::<Vec<_>>());
    };
    // The first call grows the pool to its full size.
    call(1);
    let Some(before) = process_threads() else {
        eprintln!("no /proc/self/status: skipping the thread-count check");
        return;
    };
    for round in 0..200 {
        call(round);
    }
    assert_eq!(
        process_threads(),
        Some(before),
        "parallel calls spawned threads"
    );
    // The caller plus at most three helpers ever ran an item.
    let distinct = seen.lock().unwrap().len();
    assert!(
        (2..=4).contains(&distinct),
        "{distinct} distinct threads ran items"
    );
}
