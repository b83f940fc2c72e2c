//! The open-loop load generator.
//!
//! Request `i` of a phase is *intended* to leave at `t0 + i / rate`,
//! whatever happened to earlier requests, and its latency is counted from
//! that intended time (the coordinated-omission correction from Tene's
//! "How NOT to measure latency"): a server that stalls is charged for
//! every request the stall delayed, not just the one it held.
//!
//! `conns` sender threads, each owning one keep-alive connection, take
//! requests off one shared schedule. A thread that is free before a
//! request's intended time waits until then; how late it wakes is the
//! generator's own lag (`gen_late`), which says whether the generator
//! kept its schedule. A thread that is still busy when a request falls
//! due sends it late; that wait is the system's backlog and is part of
//! the request's latency.

use crate::stats::percentile;
use grafics_serve::HttpClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request to send: an endpoint kind (an index the caller chooses,
/// used to split the results) plus its path and JSON body.
pub struct Req {
    pub kind: usize,
    pub path: &'static str,
    pub body: String,
}

/// Everything one phase measured, split by request kind.
#[derive(Default)]
pub struct Phase {
    pub name: String,
    pub rate: f64,
    /// Per kind: latencies in µs from the intended send time.
    pub latency_us: Vec<Vec<f64>>,
    /// Per kind: requests sent / answered with a well-formed 200.
    pub sent: Vec<u64>,
    pub ok: Vec<u64>,
    /// Generator lag (µs) of every request whose thread was waiting for it.
    pub gen_late_us: Vec<f64>,
    /// How late (µs) each request left, backlog included.
    pub send_late_us: Vec<f64>,
    /// `(index, kind, response body)` of the requests `keep` selected.
    pub kept: Vec<(usize, usize, String)>,
}

/// Generator lag above which a phase is flagged as off schedule. The
/// generator shares two cores with the server, so a woken sender can wait
/// out a server thread's scheduler slice (a few ms) before it runs.
pub const GEN_LATE_LIMIT_US: f64 = 5_000.0;

impl Phase {
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    pub fn total_ok(&self) -> u64 {
        self.ok.iter().sum()
    }

    pub fn gen_late_p99_us(&self) -> f64 {
        percentile(&self.gen_late_us, 0.99)
    }

    /// `true` when the generator itself could not keep this phase's
    /// schedule, so its latencies describe the generator, not the server.
    pub fn off_schedule(&self) -> bool {
        self.gen_late_p99_us() > GEN_LATE_LIMIT_US
    }

    /// One line for the phase report.
    pub fn report_line(&self) -> String {
        format!(
            "phase {:<22} rate {:>8.1}/s  sent {:>6}  ok {:>6}  failed {:>4}  gen_late_p99 {:>7.1} us{}",
            self.name,
            self.rate,
            self.total_sent(),
            self.total_ok(),
            self.total_sent() - self.total_ok(),
            self.gen_late_p99_us(),
            if self.off_schedule() { "  OFF-SCHEDULE" } else { "" }
        )
    }
}

/// Whether the generator kept the schedule over a whole measurement made
/// of several phases: its pooled lag p99 stays under the limit. (One
/// short phase hit by a scheduling hiccup does not void the others.)
pub fn kept_schedule<'a>(phases: impl IntoIterator<Item = &'a Phase>) -> (bool, f64) {
    let lag: Vec<f64> = phases
        .into_iter()
        .flat_map(|p| p.gen_late_us.iter().copied())
        .collect();
    let p99 = percentile(&lag, 0.99);
    (p99 <= GEN_LATE_LIMIT_US, p99)
}

/// Sends `n` requests open-loop at `rate` per second over `conns`
/// keep-alive connections. `make(i)` builds request `i` (before its
/// intended time, so building it costs the measurement nothing);
/// `check(kind, status, body)` says whether an answer is a well-formed
/// success; `keep(i)` selects responses to return for verification.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    name: &str,
    addr: SocketAddr,
    rate: f64,
    n: usize,
    conns: usize,
    kinds: usize,
    make: &(dyn Fn(usize) -> Req + Sync),
    check: &(dyn Fn(usize, u16, &str) -> bool + Sync),
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Phase {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Phase {
        name: name.to_owned(),
        rate,
        latency_us: vec![Vec::with_capacity(n); kinds],
        sent: vec![0; kinds],
        ok: vec![0; kinds],
        ..Phase::default()
    });
    let t0 = Instant::now() + Duration::from_millis(2);
    let interval = 1.0 / rate;
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let mut local = Phase {
                    latency_us: vec![Vec::new(); kinds],
                    sent: vec![0; kinds],
                    ok: vec![0; kinds],
                    ..Phase::default()
                };
                let mut client = connect(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let req = make(i);
                    let intended = t0 + Duration::from_secs_f64(i as f64 * interval);
                    let now = Instant::now();
                    let waited = intended > now;
                    if waited {
                        // A plain sleep: under CPU contention a woken
                        // thread is scheduled sooner than one that spins
                        // on `yield_now`.
                        std::thread::sleep(intended - now);
                    }
                    let sent_at = Instant::now();
                    let late = 1e6 * sent_at.saturating_duration_since(intended).as_secs_f64();
                    if waited {
                        local.gen_late_us.push(late);
                    }
                    local.send_late_us.push(late);
                    local.sent[req.kind] += 1;
                    let answer = client
                        .as_mut()
                        .and_then(|c| c.post(req.path, &req.body).ok());
                    let latency = 1e6 * Instant::now().duration_since(intended).as_secs_f64();
                    local.latency_us[req.kind].push(latency);
                    match answer {
                        Some((status, body)) => {
                            if check(req.kind, status, &body) {
                                local.ok[req.kind] += 1;
                            }
                            if keep(i) {
                                local.kept.push((i, req.kind, body));
                            }
                        }
                        // A broken connection fails this request; the
                        // next one gets a fresh connection.
                        None => client = connect(addr),
                    }
                }
                let mut all = merged.lock().expect("phase lock");
                for k in 0..kinds {
                    all.latency_us[k].append(&mut local.latency_us[k]);
                    all.sent[k] += local.sent[k];
                    all.ok[k] += local.ok[k];
                }
                all.gen_late_us.append(&mut local.gen_late_us);
                all.send_late_us.append(&mut local.send_late_us);
                all.kept.append(&mut local.kept);
            });
        }
    });
    let mut phase = merged.into_inner().expect("phase lock");
    phase.kept.sort_by_key(|(i, _, _)| *i);
    phase
}

fn connect(addr: SocketAddr) -> Option<HttpClient> {
    let mut client = HttpClient::connect(addr).ok()?;
    // A retried request would hide a failure from the count.
    client.set_retry_policy(0, Duration::from_millis(1));
    Some(client)
}
