//! Concurrent callers on a one-thread pool all finish: every caller works
//! on its own parallel call, so none waits for a pool thread another
//! caller holds.
//!
//! This file holds exactly one `#[test]`, because it sets the process-wide
//! `RAYON_NUM_THREADS`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;

const CALLERS: usize = 3;

#[test]
fn three_concurrent_callers_on_a_one_thread_pool_all_finish() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let inside = Arc::new(AtomicUsize::new(0));
    let (done, finished) = mpsc::channel();
    for caller in 0..CALLERS {
        let inside = Arc::clone(&inside);
        let done = done.clone();
        std::thread::spawn(move || {
            let out: Vec<usize> = (0..32usize)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        // Rendezvous: all three calls must be running items
                        // at the same time for any of them to get past here.
                        inside.fetch_add(1, Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(20);
                        while inside.load(Ordering::SeqCst) < CALLERS {
                            assert!(Instant::now() < deadline, "callers never overlapped");
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    i + caller
                })
                .collect();
            assert_eq!(out, (0..32).map(|i| i + caller).collect::<Vec<_>>());
            done.send(caller).unwrap();
        });
    }
    drop(done);
    let mut callers: Vec<usize> = (0..CALLERS)
        .map(|_| {
            finished
                .recv_timeout(Duration::from_secs(30))
                .expect("a caller never finished")
        })
        .collect();
    callers.sort_unstable();
    assert_eq!(callers, vec![0, 1, 2]);
}
