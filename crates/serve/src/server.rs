//! Front-ends: line-delimited JSON over stdin/stdout or a TCP listener.
//!
//! Both front-ends share one [`ServerCore`] and one bounded line loop;
//! each input source gets a response channel drained by a writer
//! thread, so workers never block on slow clients holding the queue
//! lock. A `shutdown` request stops admission, drains queued work (every
//! admitted request is answered), joins the workers, and returns.

use crate::proto::{parse_request, Request, Response};
use crate::worker::ServerCore;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

/// Handle one request line: admit events, execute commands. Returns
/// `true` when the line asked for shutdown.
fn handle_line(line: &str, core: &ServerCore, out: &Sender<Response>) -> bool {
    match parse_request(line) {
        Ok(Request::Event { id, event }) => core.submit_event(id, event, out.clone()),
        Ok(Request::Reload { path }) => {
            let resp = match core.registry.reload(&path) {
                Ok(version) => {
                    let mut r = Response::ack();
                    r.version = Some(version);
                    r
                }
                Err(e) => {
                    core.stats.record_error();
                    Response::error(None, format!("reload failed ({path}): {e}"))
                }
            };
            let _ = out.send(resp);
        }
        Ok(Request::Stats) => {
            let mut r = Response::ack();
            r.version = Some(core.registry.version());
            r.stats = Some(core.stats.snapshot());
            let _ = out.send(r);
        }
        Ok(Request::Shutdown) => {
            let _ = out.send(Response::ack());
            return true;
        }
        Err(e) => {
            core.stats.record_error();
            let _ = out.send(Response::error(None, e));
        }
    }
    false
}

/// Longest request line (bytes, newline excluded) the front-ends
/// buffer: 1 KiB per hit of the event budget — several times the JSON
/// size of a hit, so an over-budget event still parses and gets its
/// explicit `shed` response — plus 64 KiB for the request envelope.
fn max_line_bytes(max_event_hits: usize) -> usize {
    max_event_hits
        .saturating_mul(1024)
        .saturating_add(64 * 1024)
}

/// Consume input up to and including the next `\n` (or EOF) without
/// buffering it.
fn skip_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        if let Some(i) = chunk.iter().position(|&b| b == b'\n') {
            reader.consume(i + 1);
            return Ok(());
        }
        let n = chunk.len();
        reader.consume(n);
    }
}

/// The line loop both front-ends run: read request lines of at most
/// [`max_line_bytes`] bytes and hand each to [`handle_line`] until EOF
/// or a `shutdown` request (returns `Ok(true)` for the latter). An
/// over-long or non-UTF-8 line is answered with an error and skipped;
/// the reader keeps serving after it.
fn serve_lines(
    mut reader: impl BufRead,
    core: &ServerCore,
    out: &Sender<Response>,
) -> std::io::Result<bool> {
    let cap = max_line_bytes(core.config.max_event_hits);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if (&mut reader)
            .take(cap as u64 + 1)
            .read_until(b'\n', &mut buf)?
            == 0
        {
            return Ok(false);
        }
        let error = if buf.len() > cap && buf.last() != Some(&b'\n') {
            skip_line(&mut reader)?;
            Some(format!("request line exceeds {cap} bytes"))
        } else {
            while matches!(buf.last(), Some(b'\n' | b'\r')) {
                buf.pop();
            }
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) if handle_line(line, core, out) => return Ok(true),
                Ok(_) => None,
                Err(_) => Some("request line is not valid UTF-8".to_string()),
            }
        };
        if let Some(e) = error {
            core.stats.record_error();
            let _ = out.send(Response::error(None, e));
        }
    }
}

/// Spawn a writer thread that serialises responses from `rx` into `w`,
/// one JSON line each, flushing after every line.
fn spawn_writer<W: Write + Send + 'static>(
    rx: std::sync::mpsc::Receiver<Response>,
    mut w: W,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(resp) = rx.recv() {
            if writeln!(w, "{}", resp.to_line())
                .and_then(|()| w.flush())
                .is_err()
            {
                break;
            }
        }
    })
}

/// Serve requests from stdin, responses to stdout, until EOF or a
/// `shutdown` request. Consumes the core: queued work is drained and
/// answered before returning.
pub fn serve_stdio(core: ServerCore) -> std::io::Result<()> {
    let (tx, rx) = channel::<Response>();
    let writer = spawn_writer(rx, std::io::stdout());
    let served = serve_lines(std::io::stdin().lock(), &core, &tx);
    core.shutdown();
    drop(tx);
    let _ = writer.join();
    served.map(drop)
}

/// Serve a TCP listener: one reader thread and one writer thread per
/// connection, all feeding the shared core. Returns when any client
/// sends `shutdown` (queued work is drained and answered first).
pub fn serve_tcp(core: ServerCore, addr: impl ToSocketAddrs) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let core = Arc::new(core);
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let core = Arc::clone(&core);
                let stop = Arc::clone(&stop);
                conns.push(std::thread::spawn(move || {
                    let (tx, rx) = channel::<Response>();
                    let write_half = match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => return,
                    };
                    let writer = spawn_writer(rx, write_half);
                    if let Ok(true) = serve_lines(BufReader::new(stream), &core, &tx) {
                        stop.store(true, Ordering::SeqCst);
                    }
                    drop(tx);
                    let _ = writer.join();
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    for c in conns {
        let _ = c.join();
    }
    match Arc::try_unwrap(core) {
        Ok(core) => core.shutdown(),
        Err(core) => core.queue.shutdown(),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::worker::ServeConfig;
    use rand::{rngs::StdRng, SeedableRng};
    use trkx_core::{EmbeddingStage, FilterStage, PipelineConfig, TrainedPipeline};
    use trkx_detector::{simulate_event, DetectorGeometry, GunConfig};
    use trkx_ignn::{IgnnConfig, InteractionGnn};

    /// An untrained pipeline: the line loop only needs a servable model.
    fn untrained_pipeline() -> TrainedPipeline {
        let config = PipelineConfig::default();
        let (nf, ef) = (config.vertex_features, config.edge_features);
        let mut rng = StdRng::seed_from_u64(1);
        TrainedPipeline {
            embedding: EmbeddingStage::new(nf, config.embedding.clone()),
            radius: 0.5,
            filter: FilterStage::new(nf, ef, config.filter.clone()),
            gnn: InteractionGnn::new(
                IgnnConfig::new(nf, ef).with_hidden(8).with_gnn_layers(2),
                &mut rng,
            ),
            config,
        }
    }

    #[test]
    fn over_cap_line_is_rejected_and_the_reader_keeps_serving() {
        let mut rng = StdRng::seed_from_u64(3);
        let event = simulate_event(
            &DetectorGeometry::default(),
            &GunConfig::default(),
            5,
            0.1,
            &mut rng,
        );
        let config = ServeConfig {
            workers: 1,
            max_event_hits: 200,
            ..ServeConfig::default()
        };
        assert!(event.num_hits() <= config.max_event_hits);
        let cap = max_line_bytes(config.max_event_hits);
        // A well-formed `stats` request padded past the cap: an unbounded
        // reader would answer it, the bounded one must refuse it.
        let mut input = b"{\"cmd\":\"stats\"".to_vec();
        input.resize(cap + 4096, b' ');
        input.extend_from_slice(b"}\n");
        input.extend_from_slice(
            format!(
                "{{\"id\":7,\"event\":{}}}\n",
                serde_json::to_string(&event).unwrap()
            )
            .as_bytes(),
        );

        let core = ServerCore::start(
            config,
            Arc::new(ModelRegistry::from_pipeline(untrained_pipeline())),
        );
        let (tx, rx) = channel();
        let shutdown = serve_lines(&input[..], &core, &tx).unwrap();
        assert!(!shutdown);
        assert_eq!(core.stats.snapshot().errors, 1);
        core.shutdown();
        drop(tx);

        let responses: Vec<Response> = rx.iter().collect();
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert_eq!(responses[0].status, "error", "{:?}", responses[0]);
        assert!(responses[0].error.as_deref().unwrap().contains("exceeds"));
        assert_eq!(responses[1].status, "ok", "{:?}", responses[1]);
        assert_eq!(responses[1].id, Some(7));
        assert_eq!(responses[1].num_hits, Some(event.num_hits()));
    }
}
