//! `serve-stdio`: open-loop load on a `trkx serve --workers 2` child over
//! one stdio pipe pair, driven by one sender thread and one receiver
//! thread. Requests are small events (20–30 particles) arriving as a
//! seeded Poisson stream at a fixed nominal rate, with a seeded few
//! oversized events that must shed and a `reload` of the same bundle
//! every few seconds; then a fixed rate ladder finds the highest rate
//! whose tail stays under the latency limit with no growing backlog.
//! Latency is timed from each request's due time, so a stalled sender
//! or server charges every request it delays.

use crate::report::{Provenance, Report};
use crate::trace::Tracer;
use crate::{mem, reco, stats, timed_setup, Args};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trkx_core::{TrackMetrics, TrainedPipeline};
use trkx_serve::{parse_request, tracks_from_components, Request, Response};

const WORKERS: usize = 2;
const SMALL: (usize, usize) = (20, 30);
const DISTINCT_EVENTS: usize = 16;
const OVERSIZED_EVENTS: usize = 4;
/// Per-event hit budget passed to the server; small events stay far
/// below it, oversized ones far above.
const HIT_BUDGET: usize = 1000;
/// Share of nominal-phase requests that carry an oversized event.
const OVERSIZED_SHARE: f64 = 0.01;
/// Latency limit on the tail, from due time.
pub const LIMIT_MS: f64 = 50.0;
/// Nominal arrival rate, about half the 2-worker capacity the ladder
/// measures on a 2-core host (400–500 ev/s).
const NOMINAL_EPS: f64 = 200.0;
/// The server's micro-batch limit. With batching on, every new batch
/// composition adds tape-pool buffers (the pool keys them by exact
/// length), and the resulting memory growth and page-fault stalls feed
/// back into queueing and bigger, newer batches: repeated runs of one
/// seed then differed 2-4x in p50, p99 and peak RSS on a 2-core host.
/// Until the pool recycles across shapes the workload serves one event
/// per batch; batched inference is measured by `reco-pileup`.
const MAX_BATCH_EVENTS: usize = 1;
const RELOAD_EVERY_S: f64 = 3.0;
/// Back-to-back windows the `--seconds` of nominal load is split into.
const NOMINAL_WINDOWS: usize = 3;
const WARM_S: f64 = 4.0;
/// Fixed ladder of arrival rates (events/s), run in order until two
/// consecutive rungs fail after one passed; each rung lasts `RUNG_S`.
/// Capacity is the highest rung that passed together with the rung
/// below it, so one stalled rung on a shared host neither ends the
/// ladder early nor lets a lucky rung past the knee count.
const LADDER: [f64; 14] = [
    250.0, 300.0, 350.0, 400.0, 425.0, 450.0, 475.0, 500.0, 525.0, 550.0, 575.0, 600.0, 650.0,
    700.0,
];
const RUNG_S: f64 = 1.5;
/// A rung's backlog is growing when more requests than this are still
/// unanswered as its last one goes out (~60 ms of work at capacity).
const BACKLOG_LIMIT: usize = 32;
const SETUP_REPS: usize = 3;
/// Longest wait for a phase's responses after its last request.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Seeded Poisson arrival offsets (seconds) over `[0, duration)`.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

#[derive(Clone, Copy)]
enum Item {
    Event { id: u64, payload: usize },
    Reload,
}

struct SentRec {
    item: Item,
    due: Instant,
    sent: Instant,
}

/// What the receiver thread saw: one response line with its arrival.
type Received = (Instant, Result<Response, String>);

struct Workload {
    bundle: PathBuf,
    /// Event JSON per payload index: small events, then oversized ones.
    payloads: Arc<Vec<String>>,
    /// Reference tracks (from `TrainedPipeline::reconstruct` of the event
    /// as the server parses it) and track metrics per small payload.
    reference: Vec<(Vec<Vec<u32>>, TrackMetrics)>,
    oversized_from: usize,
}

/// The running child and the client threads around it.
struct Session {
    child: Child,
    to_sender: Option<Sender<Vec<(f64, Item)>>>,
    from_sender: Receiver<(Vec<SentRec>, f64)>,
    from_receiver: Receiver<Received>,
    sender: Option<JoinHandle<Option<Tracer>>>,
    receiver: Option<JoinHandle<Option<Tracer>>>,
    /// Responses received but not yet claimed by a phase.
    backlog: Vec<Received>,
    /// Whether the client threads record spans (traced runs only).
    tracing: Arc<AtomicBool>,
}

impl Drop for Session {
    fn drop(&mut self) {
        // Error paths only: a clean run has already shut the child down.
        self.to_sender.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.sender.take() {
            let _ = h.join();
        }
        if let Some(h) = self.receiver.take() {
            let _ = h.join();
        }
    }
}

fn event_line(id: u64, payload: &str) -> String {
    format!("{{\"id\":{id},\"event\":{payload}}}\n")
}

fn sender_loop(
    mut stdin: ChildStdin,
    payloads: Arc<Vec<String>>,
    reload_line: String,
    plans: Receiver<Vec<(f64, Item)>>,
    done: Sender<(Vec<SentRec>, f64)>,
    mut tracer: Option<Tracer>,
    on: Arc<AtomicBool>,
) -> Option<Tracer> {
    while let Ok(plan) = plans.recv() {
        let start = Instant::now();
        let mut recs = Vec::with_capacity(plan.len());
        let mut write_err = None;
        for (off, item) in plan {
            let due = start + Duration::from_secs_f64(off);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let id = match item {
                Item::Event { id, .. } => id,
                Item::Reload => u64::MAX,
            };
            let span = tracer
                .as_mut()
                .filter(|_| on.load(Ordering::Relaxed))
                .map(|t| t.begin("client.send", id));
            let res = match item {
                Item::Event { id, payload } => {
                    stdin.write_all(event_line(id, &payloads[payload]).as_bytes())
                }
                Item::Reload => stdin.write_all(reload_line.as_bytes()),
            }
            .and_then(|()| stdin.flush());
            if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                t.end(s);
            }
            if let Err(e) = res {
                write_err = Some(e);
                break;
            }
            recs.push(SentRec { item, due, sent });
        }
        let elapsed = start.elapsed().as_secs_f64();
        if done.send((recs, elapsed)).is_err() || write_err.is_some() {
            break;
        }
    }
    // Closing stdin after the shutdown line lets the server exit.
    let _ = stdin.write_all(b"{\"cmd\":\"shutdown\"}\n");
    drop(stdin);
    tracer
}

fn receiver_loop(
    stdout: ChildStdout,
    out: Sender<Received>,
    mut tracer: Option<Tracer>,
    on: Arc<AtomicBool>,
) -> Option<Tracer> {
    for line in BufReader::new(stdout).lines() {
        let at = Instant::now();
        let parsed = match line {
            Ok(l) => {
                let span = tracer
                    .as_mut()
                    .filter(|_| on.load(Ordering::Relaxed))
                    .map(|t| t.begin("client.recv", 0));
                let r = serde_json::from_str::<Response>(&l)
                    .map_err(|e| format!("bad response line: {e}"));
                if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                    if let Ok(resp) = &r {
                        t.spans[s].id = resp.id.unwrap_or(u64::MAX);
                    }
                    t.end(s);
                }
                r
            }
            Err(e) => Err(format!("read response: {e}")),
        };
        if out.send((at, parsed)).is_err() {
            break;
        }
    }
    tracer
}

fn spawn(args: &Args, w: &Workload, traced: bool) -> Result<Session, String> {
    let log = std::fs::File::create(args.out.join(format!("serve-stderr-seed{}.log", args.seed)))
        .map_err(|e| format!("serve log: {e}"))?;
    let mut child = Command::new(&args.trkx)
        .arg("serve")
        .arg("--model")
        .arg(&w.bundle)
        .args([
            "--workers",
            &WORKERS.to_string(),
            "--max-event-hits",
            &HIT_BUDGET.to_string(),
            // Admission by hit budget only: ladder rungs past capacity
            // queue up instead of shedding, and the ladder stops there.
            "--max-queue",
            "1000000",
            // One event per micro-batch: see MAX_BATCH_EVENTS.
            "--max-batch-events",
            &MAX_BATCH_EVENTS.to_string(),
        ])
        .env("RAYON_NUM_THREADS", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log))
        .spawn()
        .map_err(|e| format!("spawn {:?} serve: {e}", args.trkx))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let origin = Instant::now();
    let (to_sender, plans) = channel();
    let (done, from_sender) = channel();
    let (out, from_receiver) = channel();
    let payloads = Arc::clone(&w.payloads);
    let reload_line = format!(
        "{{\"cmd\":\"reload\",\"path\":{:?}}}\n",
        w.bundle.to_str().ok_or("bundle path is not UTF-8")?
    );
    let st = traced.then(|| Tracer::new(origin, "serve-sender"));
    let rt = traced.then(|| Tracer::new(origin, "serve-receiver"));
    let tracing = Arc::new(AtomicBool::new(false));
    let (on_s, on_r) = (Arc::clone(&tracing), Arc::clone(&tracing));
    let sender = std::thread::spawn(move || {
        sender_loop(stdin, payloads, reload_line, plans, done, st, on_s)
    });
    let receiver = std::thread::spawn(move || receiver_loop(stdout, out, rt, on_r));
    Ok(Session {
        child,
        to_sender: Some(to_sender),
        from_sender,
        from_receiver,
        sender: Some(sender),
        receiver: Some(receiver),
        backlog: Vec::new(),
        tracing,
    })
}

/// One phase's outcome.
#[derive(Default)]
struct Phase {
    name: String,
    rate: f64,
    /// Per event request: (payload, latency from due in ms, response).
    events: Vec<(usize, f64, Response)>,
    reload_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Sent minus answered when the sender finished.
    backlog_at_end: usize,
    missing: usize,
    duplicates: usize,
    unknown: usize,
    wall_s: f64,
}

impl Session {
    /// Send `plan`, wait for every answer, and pair answers with requests.
    fn run(&mut self, name: &str, rate: f64, plan: Vec<(f64, Item)>) -> Result<Phase, String> {
        self.to_sender
            .as_ref()
            .expect("session open")
            .send(plan)
            .map_err(|_| "sender thread exited".to_string())?;
        let (sent, wall_s) = loop {
            match self.from_sender.recv_timeout(Duration::from_millis(50)) {
                Ok(v) => break v,
                Err(RecvTimeoutError::Timeout) => self.pump()?,
                Err(RecvTimeoutError::Disconnected) => return Err("sender thread exited".into()),
            }
        };
        self.pump()?;
        let expected_events = sent
            .iter()
            .filter(|s| matches!(s.item, Item::Event { .. }))
            .count();
        let expected_reloads = sent.len() - expected_events;
        let is_reload_ack = |r: &Response| {
            r.id.is_none() && r.version.is_some() && r.stats.is_none() && r.status == "ok"
        };
        let answered = |b: &[Received]| -> (usize, usize) {
            let ev = b
                .iter()
                .filter(|(_, r)| matches!(r, Ok(r) if r.id.is_some()))
                .count();
            let rl = b
                .iter()
                .filter(|(_, r)| matches!(r, Ok(r) if is_reload_ack(r)))
                .count();
            (ev, rl)
        };
        let backlog_at_end = expected_events.saturating_sub(answered(&self.backlog).0);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            let (ev, rl) = answered(&self.backlog);
            if ev >= expected_events && rl >= expected_reloads {
                break;
            }
            if Instant::now() > deadline {
                break;
            }
            match self.from_receiver.recv_timeout(Duration::from_millis(20)) {
                Ok(r) => self.backlog.push(r),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("server closed its stdout".into())
                }
            }
        }
        let mut phase = Phase {
            name: name.to_string(),
            rate,
            backlog_at_end,
            wall_s,
            ..Default::default()
        };
        let mut by_id: HashMap<u64, (Instant, usize)> = HashMap::new();
        let mut reload_sent: Vec<Instant> = Vec::new();
        for s in &sent {
            phase.late_ms.push((s.sent - s.due).as_secs_f64() * 1e3);
            match s.item {
                Item::Event { id, payload } => {
                    by_id.insert(id, (s.due, payload));
                }
                Item::Reload => reload_sent.push(s.sent),
            }
        }
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let mut acks: Vec<Instant> = Vec::new();
        for (at, r) in std::mem::take(&mut self.backlog) {
            let r = r?;
            match r.id {
                Some(id) => match by_id.get(&id) {
                    Some(&(due, payload)) => {
                        let n = seen.entry(id).or_insert(0);
                        *n += 1;
                        if *n == 1 {
                            phase
                                .events
                                .push((payload, (at - due).as_secs_f64() * 1e3, r));
                        } else {
                            phase.duplicates += 1;
                        }
                    }
                    None => phase.unknown += 1,
                },
                None if is_reload_ack(&r) => acks.push(at),
                None if r.status != "ok" => return Err(format!("server error: {:?}", r.error)),
                None => {}
            }
        }
        phase.missing = by_id.len() - seen.len();
        // Reloads are answered in the order they were sent (one reader).
        for (s, a) in reload_sent.iter().zip(&acks) {
            phase.reload_ms.push((*a - *s).as_secs_f64() * 1e3);
        }
        phase.missing += reload_sent.len().saturating_sub(acks.len());
        Ok(phase)
    }

    /// Move everything the receiver has so far into the backlog.
    fn pump(&mut self) -> Result<(), String> {
        loop {
            match self.from_receiver.try_recv() {
                Ok(r) => self.backlog.push(r),
                Err(std::sync::mpsc::TryRecvError::Empty) => return Ok(()),
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    return Err("server closed its stdout".into())
                }
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Shut the server down cleanly and collect the client tracers.
    fn close(mut self) -> Result<Vec<Tracer>, String> {
        self.to_sender.take();
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for server: {e}"))?;
        let mut tracers = Vec::new();
        for h in [self.sender.take(), self.receiver.take()]
            .into_iter()
            .flatten()
        {
            if let Some(t) = h.join().map_err(|_| "client thread panicked".to_string())? {
                tracers.push(t);
            }
        }
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(tracers)
    }
}

fn build_workload(args: &Args) -> Result<Workload, String> {
    let bundle = reco::bundle_in_child(args, &format!("serve-bundle-seed{}.json", args.seed))?;
    let pipeline = TrainedPipeline::load_json(&bundle).map_err(|e| format!("load bundle: {e}"))?;
    let small = reco::events(args.seed, 3, DISTINCT_EVENTS, SMALL);
    let mut big = Vec::new();
    let mut k = 0u64;
    while big.len() < OVERSIZED_EVENTS {
        let e = reco::events(args.seed ^ k, 4, 1, (150, 200))
            .pop()
            .expect("one event");
        if e.num_hits() > HIT_BUDGET {
            big.push(e);
        }
        k += 1;
    }
    let mut payloads = Vec::with_capacity(small.len() + big.len());
    let mut reference = Vec::with_capacity(small.len());
    let min_hits = pipeline.config.min_hits;
    for e in small.iter().chain(&big) {
        payloads.push(serde_json::to_string(e).map_err(|e| format!("encode event: {e}"))?);
    }
    for (i, e) in small.iter().enumerate() {
        if e.num_hits() > HIT_BUDGET {
            return Err(format!(
                "small event {i} has {} hits > budget",
                e.num_hits()
            ));
        }
        // Reference from the event exactly as the server will parse it.
        let parsed = match parse_request(event_line(i as u64, &payloads[i]).trim_end()) {
            Ok(Request::Event { event, .. }) => event,
            other => return Err(format!("workload line {i} does not parse: {other:?}")),
        };
        let r = pipeline.reconstruct(&parsed);
        reference.push((
            tracks_from_components(&r.component_of_hit, min_hits),
            r.metrics,
        ));
    }
    Ok(Workload {
        bundle,
        payloads: Arc::new(payloads),
        reference,
        oversized_from: small.len(),
    })
}

/// Set-up: bundle, payloads, references, and a server answering requests.
fn setup(args: &Args, traced: bool) -> Result<(Workload, Session), String> {
    let w = build_workload(args)?;
    let mut s = spawn(args, &w, traced)?;
    // Ready when one request has been answered.
    let ready = s.run("ready", 0.0, vec![(0.0, Item::Event { id: 0, payload: 0 })])?;
    if ready.events.len() != 1 {
        return Err("server did not answer the readiness request".into());
    }
    Ok((w, s))
}

struct Plans {
    rng: StdRng,
    next_id: u64,
}

impl Plans {
    fn phase(
        &mut self,
        w: &Workload,
        rate: f64,
        secs: f64,
        reloads: bool,
        oversized: bool,
    ) -> Vec<(f64, Item)> {
        let mut plan: Vec<(f64, Item)> = poisson_schedule(self.rng.gen(), rate, secs)
            .into_iter()
            .map(|t| {
                self.next_id += 1;
                let payload = if oversized && self.rng.gen::<f64>() < OVERSIZED_SHARE {
                    w.oversized_from + self.rng.gen_range(0..OVERSIZED_EVENTS)
                } else {
                    self.rng.gen_range(0..w.oversized_from)
                };
                (
                    t,
                    Item::Event {
                        id: self.next_id,
                        payload,
                    },
                )
            })
            .collect();
        if reloads {
            let mut t = RELOAD_EVERY_S;
            while t < secs {
                plan.push((t, Item::Reload));
                t += RELOAD_EVERY_S;
            }
            plan.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        plan
    }
}

/// Per-phase accounting and correctness checks shared by both modes.
struct Tally {
    sent: usize,
    ok: usize,
    shed: usize,
    error: usize,
    late: usize,
    servable: usize,
    /// Servable (within-budget) requests that were shed anyway.
    shed_servable: usize,
    ok_servable: usize,
    ok_in_limit: usize,
    /// Latency (ms) per servable request; failures count as infinite.
    lat_ms: Vec<f64>,
    tracks: TrackMetrics,
}

fn tally(r: &mut Report, w: &Workload, ph: &Phase) -> Tally {
    let mut t = Tally {
        sent: ph.events.len() + ph.missing,
        ok: 0,
        shed: 0,
        error: 0,
        late: 0,
        servable: 0,
        shed_servable: 0,
        ok_servable: 0,
        ok_in_limit: 0,
        lat_ms: Vec::new(),
        tracks: TrackMetrics {
            num_true_tracks: 0,
            num_reco_tracks: 0,
            num_matched: 0,
        },
    };
    let mut wrong_tracks = 0usize;
    let mut wrong_sheds = 0usize;
    for (payload, lat, resp) in &ph.events {
        let oversized = *payload >= w.oversized_from;
        match resp.status.as_str() {
            "ok" => t.ok += 1,
            "shed" => t.shed += 1,
            _ => t.error += 1,
        }
        if oversized {
            let shed_ok = resp.status == "shed"
                && resp
                    .reason
                    .as_deref()
                    .is_some_and(|s| s.contains("event_too_large"));
            wrong_sheds += usize::from(!shed_ok);
            continue;
        }
        t.servable += 1;
        t.shed_servable += usize::from(resp.status == "shed");
        if resp.status == "ok" {
            t.ok_servable += 1;
            let (want, metrics) = &w.reference[*payload];
            if resp.tracks.as_ref() != Some(want) {
                wrong_tracks += 1;
            }
            t.tracks.merge(metrics);
            t.lat_ms.push(*lat);
            if *lat <= LIMIT_MS {
                t.ok_in_limit += 1;
            } else {
                t.late += 1;
            }
        } else {
            t.lat_ms.push(f64::INFINITY);
        }
    }
    let name = &ph.name;
    r.check(ph.missing == 0, || {
        format!("{name}: {} requests never answered", ph.missing)
    });
    r.check(ph.duplicates == 0, || {
        format!("{name}: {} requests answered twice", ph.duplicates)
    });
    r.check(ph.unknown == 0, || {
        format!("{name}: {} answers to unknown ids", ph.unknown)
    });
    r.check(wrong_tracks == 0, || {
        format!("{name}: {wrong_tracks} ok responses differ from TrainedPipeline::reconstruct")
    });
    r.check(wrong_sheds == 0, || {
        format!("{name}: {wrong_sheds} oversized events were not shed")
    });
    t
}

/// One phase's accounting: a JSON object for the record and the same
/// figures as one line for stdout.
fn phase_summary(ph: &Phase, t: &Tally, child: Option<mem::Mem>) -> (String, String) {
    let late = &ph.late_ms;
    let max_late = late.iter().copied().fold(0.0, f64::max);
    let p99_late = if late.is_empty() {
        0.0
    } else {
        stats::percentile(late, 99.0)
    };
    let (rss, hwm) = child.map_or((f64::NAN, f64::NAN), |m| (m.rss_mb, m.hwm_mb));
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"phase\":{:?},\"rate_eps\":{},\"sent\":{},\"ok\":{},\"shed\":{},\"error\":{},\
         \"late\":{},\"gen_late_max_ms\":{max_late:.3},\"gen_late_p99_ms\":{p99_late:.3},\
         \"backlog_at_end\":{},\"reloads\":{},\"wall_s\":{:.3},\"child_rss_mb\":{rss:.1},\
         \"child_hwm_mb\":{hwm:.1}}}",
        ph.name,
        ph.rate,
        t.sent,
        t.ok,
        t.shed,
        t.error,
        t.late,
        ph.backlog_at_end,
        ph.reload_ms.len(),
        ph.wall_s,
    );
    let line = format!(
        "phase {} at {} ev/s: sent {} ok {} shed {} error {} late {}; generator late max \
         {max_late:.2} ms p99 {p99_late:.2} ms; backlog {}; child RSS {rss:.0} MB",
        ph.name, ph.rate, t.sent, t.ok, t.shed, t.error, t.late, ph.backlog_at_end
    );
    (json, line)
}

/// Latency tail of a servable set at the highest percentile the sample
/// count supports (failures are infinite, so they fail the limit).
fn rung_passes(t: &Tally, ph: &Phase) -> (bool, f64, f64) {
    let n = t.lat_ms.len();
    let Some(p) = stats::highest_supported_percentile(n).filter(|&p| p >= 90.0) else {
        return (false, 0.0, f64::INFINITY);
    };
    let tail = stats::percentile(&t.lat_ms, p);
    let backlog_ok = ph.backlog_at_end <= BACKLOG_LIMIT;
    (tail <= LIMIT_MS && backlog_ok, p, tail)
}

fn threads_note(p: &mut Provenance, child_threads: Option<u64>) {
    p.threads.push((
        "serve-stdio".into(),
        format!(
            "child: {WORKERS} serve workers x kernel pool 1 (RAYON_NUM_THREADS=1) = {WORKERS} busy \
             threads plus its stdin reader and writer (Threads: {}); client: one sender and one \
             receiver thread, mostly blocked",
            child_threads.map_or("?".to_string(), |t| t.to_string())
        ),
    ));
}

fn child_threads(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    mem::status_kb(&text, "Threads")
}

pub fn run(args: &Args, prov: &mut Provenance, r: &mut Report) -> Result<(), String> {
    let mut reps = 0;
    let ((w, mut s), setup_s) = timed_setup(SETUP_REPS, || {
        reps += 1;
        setup(args, false)
    })?;
    threads_note(prov, child_threads(s.pid()));
    let mut plans = Plans {
        rng: StdRng::seed_from_u64(args.seed ^ 0x5E4E),
        next_id: 0,
    };
    let mut sections = Vec::new();
    // Growth is measured from the idle, ready server: under the tape
    // pool's per-shape growth the split of a saturating growth between
    // warm-up and nominal load varies run to run; the total does not.
    let idle = mem::read(Some(s.pid()))?;

    let plan = plans.phase(&w, NOMINAL_EPS, WARM_S, false, false);
    let warm = s.run("warmup", NOMINAL_EPS, plan)?;
    let wt = tally(r, &w, &warm);
    sections.push(phase_summary(&warm, &wt, mem::read(Some(s.pid())).ok()));

    // The nominal load runs as back-to-back windows; p50 and p99 are the
    // medians of the windows' own, so one transient stall on a shared
    // host moves one window, not the result.
    let window_s = args.seconds / NOMINAL_WINDOWS as f64;
    let mut windows = Vec::with_capacity(NOMINAL_WINDOWS);
    for i in 0..NOMINAL_WINDOWS {
        let plan = plans.phase(&w, NOMINAL_EPS, window_s, true, true);
        let ph = s.run(&format!("nominal-{i}"), NOMINAL_EPS, plan)?;
        let t = tally(r, &w, &ph);
        sections.push(phase_summary(&ph, &t, mem::read(Some(s.pid())).ok()));
        windows.push((ph, t));
    }
    // Memory at the nominal operating point; the ladder's own growth
    // stays visible in the per-phase series of the record.
    let m = mem::read(Some(s.pid()))?;

    let mut capacity = 0.0;
    let mut rungs = Vec::new();
    let mut fails_in_a_row = 0;
    let mut prev_pass = false;
    for &rate in &LADDER {
        let plan = plans.phase(&w, rate, RUNG_S, false, false);
        let ph = s.run(&format!("ladder-{rate}"), rate, plan)?;
        let t = tally(r, &w, &ph);
        let (pass, p, tail) = rung_passes(&t, &ph);
        sections.push(phase_summary(&ph, &t, mem::read(Some(s.pid())).ok()));
        rungs.push(format!(
            "{rate}:{}@p{p}={tail:.1}ms",
            if pass { "pass" } else { "fail" }
        ));
        if pass && prev_pass {
            capacity = rate;
        }
        prev_pass = pass;
        fails_in_a_row = if pass { 0 } else { fails_in_a_row + 1 };
        if capacity > 0.0 && fails_in_a_row == 2 {
            break;
        }
    }
    s.close()?;

    r.check(capacity > 0.0, || {
        format!("no two adjacent ladder rungs met the {LIMIT_MS} ms limit: {rungs:?}")
    });
    let tail_p = 99.0;
    let (mut servable, mut ok, mut ok_in_limit, mut errors, mut sent) = (0, 0, 0, 0, 0);
    let mut tracks = TrackMetrics {
        num_true_tracks: 0,
        num_reco_tracks: 0,
        num_matched: 0,
    };
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for (ph, t) in &windows {
        let n = t.lat_ms.len();
        r.check(
            stats::samples_beyond(n, tail_p) >= stats::MIN_BEYOND,
            || format!("{}: {n} requests are too few for a p{tail_p}", ph.name),
        );
        servable += t.servable;
        ok += t.ok;
        ok_in_limit += t.ok_in_limit;
        errors += t.error;
        sent += t.sent;
        tracks.merge(&t.tracks);
        p50s.push(stats::percentile(&t.lat_ms, 50.0));
        tails.push(stats::percentile(&t.lat_ms, tail_p));
    }
    let not_ok = windows
        .iter()
        .map(|(_, t)| t.servable - t.ok_servable)
        .sum::<usize>();
    r.check(errors == 0 && not_ok == 0, || {
        format!("nominal load: {errors} errors, {not_ok} of {servable} servable requests not ok")
    });
    r.attempted = (sent + warm.events.len()) as u64;
    r.failed = (errors + not_ok) as u64;
    let ok_frac = ok_in_limit as f64 / servable.max(1) as f64;
    let p50 = stats::median(&p50s);
    let tail = stats::median(&tails);
    let nt_purity = tracks.purity();

    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", m.hwm_mb, "MB");
    r.metric("rss_growth_mb", m.hwm_mb - idle.hwm_mb, "MB");
    r.metric("p50_ms", p50, "ms");
    r.metric("tail_ms", tail, "ms");
    r.metric("rate_per_s", capacity, "1/s");
    r.metric("quality", ok_frac, "ratio");
    r.metric("purity", nt_purity, "ratio");

    r.named("setup_s", setup_s, "s");
    r.named("peak_rss_mb", m.hwm_mb, "MB");
    r.named("rss_growth_mb", m.hwm_mb - idle.hwm_mb, "MB");
    r.named("serve_p50_ms", p50, "ms");
    r.named("serve_p99_ms", tail, "ms");
    r.named("serve_ok_frac", ok_frac, "ratio");
    r.named("serve_capacity_eps", capacity, "ev/s");
    r.named("served_track_purity", nt_purity, "ratio");
    r.note(format!(
        "open loop: {WARM_S}s warm-up then {NOMINAL_WINDOWS} windows of {window_s:.2}s Poisson at \
         {NOMINAL_EPS} ev/s with a reload every {RELOAD_EVERY_S}s and {:.0}% oversized events (must \
         shed, excluded from ok_frac); latency from due time over {servable} servable requests \
         ({ok} ok); p50/p99 are medians of the window p50s {p50s:.2?} and p99s {tails:.2?}; \
         ladder {RUNG_S}s rungs: {}",
        OVERSIZED_SHARE * 100.0,
        rungs.join(" ")
    ));
    r.note(format!(
        "memory is the child's at the nominal operating point: peak_rss_mb is its VmHWM after the \
         nominal phase, rss_growth_mb that minus its VmHWM when idle and ready ({:.0} MB); the \
         ladder's growth is in the per-phase series (child_rss_mb); setup ran {reps} times",
        idle.hwm_mb
    ));
    record_phases(r, sections);
    Ok(())
}

fn record_phases(r: &mut Report, phases: Vec<(String, String)>) {
    let (json, lines): (Vec<String>, Vec<String>) = phases.into_iter().unzip();
    r.section("serve_phases", format!("[{}]", json.join(",")));
    for l in lines {
        r.note(l);
    }
}

// ---------------------------------------------------------------- traced

pub fn traced(args: &Args, prov: &mut Provenance, r: &mut Report) -> Result<(), String> {
    let (w, mut s) = setup(args, true)?;
    threads_note(prov, child_threads(s.pid()));
    let mut plans = Plans {
        rng: StdRng::seed_from_u64(args.seed ^ 0x7ACE),
        next_id: 0,
    };
    let mut sections = Vec::new();
    let plan = plans.phase(&w, NOMINAL_EPS, WARM_S, false, false);
    let warm = s.run("warmup", NOMINAL_EPS, plan)?;
    let wt = tally(r, &w, &warm);
    sections.push(phase_summary(&warm, &wt, mem::read(Some(s.pid())).ok()));
    // The same nominal load untraced, then traced: the p50 difference is
    // the client-side tracing overhead.
    let secs = 6.0;
    let plan = plans.phase(&w, NOMINAL_EPS, secs, true, true);
    let base = s.run("nominal-untraced", NOMINAL_EPS, plan)?;
    let bt = tally(r, &w, &base);
    sections.push(phase_summary(&base, &bt, mem::read(Some(s.pid())).ok()));
    s.tracing.store(true, Ordering::Relaxed);
    let plan = plans.phase(&w, NOMINAL_EPS, secs, true, true);
    let ph = s.run("nominal", NOMINAL_EPS, plan)?;
    s.tracing.store(false, Ordering::Relaxed);
    let t = tally(r, &w, &ph);
    sections.push(phase_summary(&ph, &t, mem::read(Some(s.pid())).ok()));
    let tracers = s.close()?;
    record_phases(r, sections);
    r.attempted = (warm.events.len() + base.events.len() + ph.events.len()) as u64;

    let ok: Vec<&Response> = ph
        .events
        .iter()
        .map(|e| &e.2)
        .filter(|r| r.status == "ok")
        .collect();
    let timings: Vec<_> = ok.iter().filter_map(|r| r.timings_us).collect();
    let ms = |f: &dyn Fn(&trkx_serve::TimingsUs) -> u64| -> Vec<f64> {
        timings.iter().map(|t| f(t) as f64 / 1e3).collect()
    };
    let queue = ms(&|t| t.queue_us);
    let compute = ms(&|t| t.total_us.saturating_sub(t.queue_us));
    let batch: Vec<f64> = timings.iter().map(|t| t.batch_events as f64).collect();
    r.check(!timings.is_empty(), || {
        "traced serve run answered nothing ok".into()
    });
    if timings.is_empty() {
        return Ok(());
    }

    // Parse and encode costs, timed in-process on this run's own lines.
    let lines: Vec<String> = (0..w.payloads.len())
        .map(|i| event_line(i as u64, &w.payloads[i]))
        .collect();
    let t0 = Instant::now();
    for l in &lines {
        std::hint::black_box(parse_request(std::hint::black_box(l.trim_end())).is_ok());
    }
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / lines.len() as f64;
    let t0 = Instant::now();
    for resp in &ok {
        std::hint::black_box(std::hint::black_box(resp).to_line());
    }
    let encode_us = t0.elapsed().as_secs_f64() * 1e6 / ok.len() as f64;
    let served = t.servable.max(1) as f64;

    r.metric("serve.queue_p50_ms", stats::percentile(&queue, 50.0), "ms");
    r.metric("serve.queue_p99_ms", stats::percentile(&queue, 99.0), "ms");
    r.metric(
        "serve.compute_p50_ms",
        stats::percentile(&compute, 50.0),
        "ms",
    );
    r.metric("serve.batch_events", stats::mean(&batch), "count");
    r.metric("serve.parse_us", parse_us, "us");
    r.metric("serve.encode_us", encode_us, "us");
    r.metric("serve.reload_ms", stats::mean(&ph.reload_ms), "ms");
    r.metric("serve.shed_frac", t.shed_servable as f64 / served, "ratio");
    r.metric("serve.error_frac", t.error as f64 / served, "ratio");
    let late_max = ph.late_ms.iter().copied().fold(0.0, f64::max);
    r.metric("serve.gen_late_ms", late_max, "ms");
    let p50 = |t: &Tally| stats::percentile(&t.lat_ms, 50.0);
    r.metric(
        "serve.trace_overhead_frac",
        p50(&t) / p50(&bt) - 1.0,
        "ratio",
    );
    r.metric(
        "serve.client_send_us",
        {
            let tot = crate::trace::totals(&tracers, |sp| sp.name == "client.send");
            tot.get("client.send")
                .map_or(0.0, |x| x.self_ns as f64 / 1e3 / x.calls.max(1) as f64)
        },
        "us",
    );
    r.note(format!(
        "serve-stdio traced: {secs}s nominal phase, {} ok responses; per-layer rows read from \
         response timings_us; parse/encode timed in-process on the workload's own lines",
        ok.len()
    ));
    std::fs::write(
        args.out
            .join(format!("trace-serve-stdio-seed{}.json", args.seed)),
        crate::trace::to_json(&tracers),
    )
    .map_err(|e| format!("write trace: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(42, 125.0, 4.0);
        let b = poisson_schedule(42, 125.0, 4.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(43, 125.0, 4.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals are increasing");
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        // 500 expected arrivals; a Poisson count stays within ~5 sigma.
        assert!((390..=610).contains(&a.len()), "{} arrivals", a.len());
    }
}
