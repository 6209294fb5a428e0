//! An idle daemon sleeps in `accept`: its threads do not wake to poll.
//! This test has its own binary, so its daemon is the only one in the
//! process.

#![cfg(target_os = "linux")]

use jepo_serve::ServerConfig;
use std::time::Duration;

/// The name of the daemon's accept thread as the kernel keeps it
/// (15 bytes). The pool workers it spawns are unnamed and inherit it.
const DAEMON_COMM: &str = "jepo-serve-acce";

/// `(threads, voluntary context switches summed over them)` for this
/// process's daemon threads.
fn daemon_switches() -> (usize, u64) {
    let mut threads = 0;
    let mut switches = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let dir = task.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() != DAEMON_COMM {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        let count = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("voluntary_ctxt_switches in a task's status");
        threads += 1;
        switches += count;
    }
    (threads, switches)
}

#[test]
fn idle_daemon_threads_stay_asleep() {
    let handle = jepo_serve::serve(ServerConfig::default()).expect("bind test daemon");
    std::thread::sleep(Duration::from_secs(1));
    let (threads, switches) = daemon_switches();
    let workers = handle.workers();
    // No join: a stop that fails to wake `accept` would hang it here.
    // `handle_shutdown_stops_an_untouched_daemon` times that join.
    handle.shutdown();
    assert_eq!(
        threads,
        1 + workers,
        "expected the accept thread and {workers} workers named {DAEMON_COMM}"
    );
    assert!(
        switches < 20,
        "an idle daemon's {threads} threads made {switches} voluntary context switches in 1 s"
    );
}
