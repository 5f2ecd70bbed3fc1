//! The idle-cost gate for the epoll readiness loop: a thousand open,
//! subscribed, silent connections must cost (approximately) zero CPU.
//! The pre-epoll poller swept every connection with non-blocking reads
//! a few thousand times a second; with real readiness the poller parks
//! in the kernel and idle subscribers never wake it.
//!
//! Linux-only: the gate measures this process's CPU time via
//! `/proc/self/stat`, and only the epoll backend makes the claim.

#![cfg(target_os = "linux")]

use std::time::Duration;

use esm_engine::testkit::seed_db;
use esm_engine::{Engine, ShardedEngineServer};
use esm_net::{NetServer, NetServerConfig, RemoteEngine, SubscriptionClient};
use esm_relational::ViewDef;

/// This process's consumed CPU seconds (user + system), from
/// `/proc/self/stat` fields 14/15. Assumes the standard 100 Hz
/// `USER_HZ`, true on every mainstream Linux.
fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // comm (field 2) may contain spaces; everything after the closing
    // paren is whitespace-separated.
    let after = stat.rsplit(')').next().expect("stat has a comm field");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the paren: state is index 0, so utime/stime (fields 14/15
    // overall) are indices 11/12.
    let utime: u64 = fields[11].parse().expect("utime parses");
    let stime: u64 = fields[12].parse().expect("stime parses");
    (utime + stime) as f64 / 100.0
}

#[test]
fn a_thousand_idle_subscribers_cost_no_cpu() {
    let server = NetServer::bind(
        ShardedEngineServer::new(seed_db(), 1).unwrap().as_engine(),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("loopback bind");
    let addr = server.local_addr();
    let writer = RemoteEngine::connect(addr).expect("writer connects");
    writer
        .define_view("all", "t", &ViewDef::base())
        .expect("view defined");

    let mut subs: Vec<SubscriptionClient> = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let mut s = SubscriptionClient::connect(addr).expect("subscriber connects");
        s.subscribe("all", None).expect("suback");
        // Drain the initial resync so the quiet window is truly quiet.
        s.next_push(Duration::from_secs(10))
            .expect("stream healthy")
            .expect("initial resync");
        subs.push(s);
    }

    // Let accept/subscribe churn settle, then measure a quiet window.
    std::thread::sleep(Duration::from_millis(300));
    let before = process_cpu_seconds();
    std::thread::sleep(Duration::from_secs(2));
    let spent = process_cpu_seconds() - before;

    // The epoll poller is parked in the kernel; the push pump wakes at
    // 20 Hz to check a condvar. A full-sweep poller over 1000
    // connections burns well over a second of CPU here; allow a small
    // allowance for the pump ticks and CI noise.
    assert!(
        spent < 0.25,
        "1000 idle subscribers burned {spent:.3}s CPU over a 2s window"
    );
    drop(subs);
    server.shutdown();
}
