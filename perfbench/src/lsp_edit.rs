//! `lsp_edit`: an in-process `LspServer` over a padded 5k x 8 suite,
//! driven by a seeded editor session of full-sync `didChange`
//! keystrokes with a `hover` after every few of them.

use crate::gen::{
    false_path_line, padding_registers, suite_text, value_lines, with_scaled_value, Rng,
};
use crate::metrics::{median, ms, peak_rss_mib, percentile, quantiles, tail, Metric, Outcome};
use crate::trace::{json_str, Tracer};
use crate::{Config, LayerSet};
use modemerge_cli::lsp::LspServer;
use modemerge_core::json::Json;
use modemerge_core::lint::lint_modes_fast;
use modemerge_core::merge::{MergeOptions, ModeInput};
use modemerge_core::{MergeSession, SessionInputs};
use modemerge_netlist::{text, Library, Netlist};
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: u64 = 5;
/// A `hover` follows every this many keystrokes.
const HOVER_EVERY: usize = 6;
/// Padding exceptions per mode buffer (about 25 KB of SDC each).
const PAD_LINES: usize = 560;
/// At most this many typed exceptions are live at once, so the suite's
/// merge cost stays bounded however long the session runs.
const MAX_ADDED: usize = 3;
/// The code the server must publish for the unterminated bracket the
/// session types (`[get_pins reg/D` without its `]`).
const BROKEN_CODE: &str = "SDC-BRACKET-UNBALANCED";
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// The server's stdin: lines pushed through a channel.
struct ChanReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(b) => {
                    self.buf = b;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The server's stdout: every complete line goes back over a channel.
struct ChanWriter {
    tx: Sender<String>,
    line: Vec<u8>,
}

impl Write for ChanWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                let line = String::from_utf8(std::mem::take(&mut self.line))
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                self.tx.send(line).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "reader gone")
                })?;
            } else {
                self.line.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A served `LspServer` and its two pipes.
struct Session {
    tx: Sender<Vec<u8>>,
    rx: Receiver<String>,
    thread: JoinHandle<Result<(), String>>,
}

impl Session {
    fn start(netlist: Netlist, docs: Vec<(String, String, String)>) -> Session {
        let (in_tx, in_rx) = channel();
        let (out_tx, out_rx) = channel();
        let mut server = LspServer::new(netlist, MergeOptions::default(), docs);
        let thread = std::thread::spawn(move || {
            let reader = BufReader::new(ChanReader {
                rx: in_rx,
                buf: Vec::new(),
                pos: 0,
            });
            server.serve(
                reader,
                ChanWriter {
                    tx: out_tx,
                    line: Vec::new(),
                },
            )
        });
        Session {
            tx: in_tx,
            rx: out_rx,
            thread,
        }
    }

    fn send(&self, msg: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(msg.len() + 1);
        bytes.extend_from_slice(msg.as_bytes());
        bytes.push(b'\n');
        self.tx
            .send(bytes)
            .map_err(|_| "lsp server stopped".to_owned())
    }

    fn recv(&self) -> Result<String, String> {
        self.rx
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("no lsp reply: {e}"))
    }

    fn stop(self) -> Result<(), String> {
        self.send(r#"{"jsonrpc":"2.0","method":"exit"}"#)?;
        drop(self.tx);
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err("lsp server thread panicked".into()),
        }
    }
}

fn uri(name: &str) -> String {
    format!("file:///work/{name}.sdc")
}

fn did_open(name: &str, text: &str) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":{},"languageId":"sdc","version":1,"text":{}}}}}}}"#,
        json_str(&uri(name)),
        json_str(text)
    )
}

fn did_change(name: &str, version: usize, text: &str) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didChange","params":{{"textDocument":{{"uri":{},"version":{version}}},"contentChanges":[{{"text":{}}}]}}}}"#,
        json_str(&uri(name)),
        json_str(text)
    )
}

fn hover(id: usize, name: &str, line: usize, character: usize) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","id":{id},"method":"textDocument/hover","params":{{"textDocument":{{"uri":{}}},"position":{{"line":{line},"character":{character}}}}}}}"#,
        json_str(&uri(name))
    )
}

/// The editor's documents: padded mode buffers.
struct Docs {
    netlist: String,
    names: Vec<String>,
    base: Vec<String>,
    /// Register pool for typed exceptions (none of them padded).
    free: Vec<String>,
}

fn docs(cfg: &Config, cells: usize, modes: usize) -> Docs {
    let suite = suite_text(cells, modes, cfg.seed);
    let mut rng = Rng::new(cfg.seed ^ 0x15b);
    let pad = if cfg.smoke { 40 } else { PAD_LINES };
    let (padded, free) = padding_registers(&suite, pad, &mut rng);
    let padding: String = padded.iter().map(|r| false_path_line(r) + "\n").collect();
    Docs {
        netlist: suite.netlist,
        names: suite.modes.iter().map(|(n, _)| n.clone()).collect(),
        base: suite
            .modes
            .iter()
            .map(|(_, s)| format!("{s}{padding}"))
            .collect(),
        free,
    }
}

/// Initialize, then open every document, waiting for each reply.
fn open(session: &Session, docs: &Docs) -> Result<(), String> {
    session.send(r#"{"jsonrpc":"2.0","id":0,"method":"initialize","params":{}}"#)?;
    let init = session.recv()?;
    if !init.contains("\"capabilities\"") {
        return Err(format!("initialize: {}", &init[..init.len().min(200)]));
    }
    session.send(r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#)?;
    for (name, text) in docs.names.iter().zip(&docs.base) {
        session.send(&did_open(name, text))?;
        let publish = session.recv()?;
        if !publish.contains("publishDiagnostics") || publish.contains("\"code\":\"SDC-") {
            return Err(format!("didOpen {name}: unexpected reply"));
        }
    }
    Ok(())
}

/// What a keystroke did to its buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Keystroke {
    Value,
    Broken,
    AddException,
    RemoveException,
}

struct Sent {
    mode: usize,
    line: Arc<String>,
    text: Arc<String>,
    hover: bool,
}

pub fn run(cfg: &Config, tr: &Tracer) -> Outcome {
    let (cells, modes) = if cfg.smoke { (800, 4) } else { (5_000, 8) };
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut live: Option<(Session, Docs, Netlist)> = None;
    for rep in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let d = tr.span("workload.generate", 0, rep, |_| docs(cfg, cells, modes));
        let parsed = tr.span("netlist.parse", 0, rep, |_| {
            text::parse(&d.netlist, Library::standard())
        });
        let netlist = match parsed {
            Ok(n) => n,
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("netlist: {e}"));
                return out;
            }
        };
        let files = d
            .names
            .iter()
            .zip(&d.base)
            .map(|(n, t)| (n.clone(), format!("{n}.sdc"), t.clone()))
            .collect();
        let session = Session::start(netlist.clone(), files);
        if let Err(e) = open(&session, &d) {
            out.attempted += 1;
            out.failed += 1;
            out.problem(format!("set-up: {e}"));
            let _ = session.stop();
            return out;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((prev, _, _)) = live.replace((session, d, netlist)) {
            if let Err(e) = prev.stop() {
                out.problem(format!("stopping a set-up server: {e}"));
            }
        }
    }
    let (session, docs, netlist) = live.expect("at least one set-up");
    out.notes.push(format!(
        "buffers: {} modes, {} to {} bytes each",
        docs.base.len(),
        docs.base.iter().map(String::len).min().unwrap_or(0),
        docs.base.iter().map(String::len).max().unwrap_or(0)
    ));

    let mut rng = Rng::new(cfg.seed.wrapping_mul(7919));
    let mut texts = docs.base.clone();
    let value_at: Vec<Vec<usize>> = docs.base.iter().map(|t| value_lines(t)).collect();
    let mut free = docs.free.clone();
    let mut added: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    let mut versions = vec![1usize; texts.len()];

    let mut keystroke_ms = Vec::new();
    let mut hover_ms = Vec::new();
    let mut publish_bytes = Vec::new();
    let mut sent: Vec<Sent> = Vec::new();
    let mut counts = [0usize; 4];
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(cfg.seconds);
    let min_keys = if cfg.smoke {
        2 * HOVER_EVERY
    } else {
        HOVER_EVERY
    };
    let mut op = 0u64;
    while Instant::now() < deadline || keystroke_ms.len() < min_keys {
        // Choose and apply this keystroke's edit.
        let (m, kind) = if let Some((m, reg)) = pending.take() {
            // Finish the line typed broken last time.
            let broken = format!("{}\n", broken_line(&reg));
            texts[m] = texts[m].replacen(&broken, &format!("{}\n", false_path_line(&reg)), 1);
            added.push((m, reg));
            (m, Keystroke::AddException)
        } else {
            let m = rng.below(texts.len());
            let r = rng.unit();
            if r < 0.1 && added.len() < MAX_ADDED && !free.is_empty() {
                let reg = free.swap_remove(rng.below(free.len()));
                texts[m].push_str(&broken_line(&reg));
                texts[m].push('\n');
                pending = Some((m, reg));
                (m, Keystroke::Broken)
            } else if r < 0.3 && !added.is_empty() {
                let (am, reg) = added.swap_remove(rng.below(added.len()));
                texts[am] = texts[am].replacen(&format!("{}\n", false_path_line(&reg)), "", 1);
                free.push(reg);
                (am, Keystroke::RemoveException)
            } else {
                let lines = &value_at[m];
                let line = lines[rng.below(lines.len())];
                let rel = (rng.unit() - 0.5) * 0.06;
                let base_line = docs.base[m].lines().nth(line).unwrap_or("");
                let edited = with_scaled_value(base_line, 0, rel);
                texts[m] = replace_line(&texts[m], line, edited.trim_end());
                (m, Keystroke::Value)
            }
        };
        counts[kind as usize] += 1;
        versions[m] += 1;
        let line = Arc::new(did_change(&docs.names[m], versions[m], &texts[m]));
        out.attempted += 1;
        op += 1;
        let t0 = Instant::now();
        let reply = session.send(&line).and_then(|()| session.recv());
        let end = Instant::now();
        tr.record("lsp.keystroke", 0, op, t0, end);
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.problem(e);
                break;
            }
        };
        keystroke_ms.push(ms(end - t0));
        publish_bytes.push(reply.len() as f64 + 1.0);
        let uri_ok =
            reply.contains("publishDiagnostics") && reply.contains(&json_str(&uri(&docs.names[m])));
        let has_sdc = reply.contains("\"code\":\"SDC-");
        let code_ok = if kind == Keystroke::Broken {
            reply.contains(&format!("\"code\":\"{BROKEN_CODE}\""))
        } else {
            !has_sdc
        };
        if !uri_ok || !code_ok {
            out.failed += 1;
            out.problem(format!(
                "{kind:?} keystroke on {}: publish {} the expected SDC-* codes",
                docs.names[m],
                if uri_ok {
                    "lacks"
                } else {
                    "is not a publish for the document or lacks"
                }
            ));
        }
        let hover_now = keystroke_ms.len() % HOVER_EVERY == 0;
        sent.push(Sent {
            mode: m,
            line,
            text: Arc::new(texts[m].clone()),
            hover: hover_now,
        });
        if hover_now {
            // Hover the mclk1 declaration (line 2 of every mode), which
            // every merged mode derives a clock from.
            let h = rng.below(texts.len());
            out.attempted += 1;
            op += 1;
            let msg = hover(keystroke_ms.len(), &docs.names[h], 1, 14);
            let t0 = Instant::now();
            let reply = session.send(&msg).and_then(|()| session.recv());
            let end = Instant::now();
            tr.record("lsp.hover", 0, op, t0, end);
            match reply {
                Ok(r) if !r.contains("\"result\":null") && r.contains("MM-") => {
                    hover_ms.push(ms(end - t0))
                }
                Ok(_) => {
                    hover_ms.push(ms(end - t0));
                    out.failed += 1;
                    out.problem(format!(
                        "hover on {} returned no MM-* provenance chain",
                        docs.names[h]
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(e);
                    break;
                }
            }
        }
    }
    let elapsed = window.elapsed().as_secs_f64();
    if let Err(e) = session.stop() {
        out.problem(format!("stopping the lsp server: {e}"));
    }
    out.notes.push(format!(
        "checks: {} keystrokes (value {}, broken {}, add {}, remove {}), {} hovers; broken lines \
         published {BROKEN_CODE}, no other publish carried SDC-*, every hover carried MM-*",
        keystroke_ms.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        hover_ms.len()
    ));
    out.notes.push(format!("set-up s: {setup_s:.3?}"));
    out.notes
        .push(format!("keystroke ms: {}", quantiles(&keystroke_ms)));
    out.notes
        .push(format!("hover ms: {}", quantiles(&hover_ms)));
    if keystroke_ms.is_empty() || hover_ms.is_empty() {
        out.problem("the window completed no keystroke or no hover");
        return out;
    }

    let (kn, hn) = (keystroke_ms.len(), hover_ms.len());
    let kt = tail(&keystroke_ms);
    out.e2e = vec![
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("op_ms", percentile(&keystroke_ms, 25), "ms", kn),
        Metric::new("op2_ms", percentile(&hover_ms, 25), "ms", hn),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB", 1),
    ];
    out.named = vec![
        Metric::new(
            "failed_frac",
            out.failed as f64 / out.attempted as f64,
            "ratio",
            out.attempted as usize,
        ),
        Metric::new("lsp_keystroke_p50_ms", median(&keystroke_ms), "ms", kn),
        Metric::new("lsp_keystroke_tail_ms", kt.value, "ms", kn).note(kt.label(kn)),
        Metric::new("lsp_hover_p50_ms", median(&hover_ms), "ms", hn),
        Metric::new("lsp_ops_per_s", (kn + hn) as f64 / elapsed, "1/s", kn + hn),
    ];
    if tr.enabled() {
        out.layers = layers(tr, &netlist, &docs, &sent, &publish_bytes);
    }
    out
}

fn broken_line(register: &str) -> String {
    format!("set_false_path -to [get_pins {register}/D")
}

fn replace_line(text: &str, line: usize, with: &str) -> String {
    let mut out = String::with_capacity(text.len() + 8);
    for (i, l) in text.lines().enumerate() {
        out.push_str(if i == line { with } else { l });
        out.push('\n');
    }
    out
}

/// Replays, outside the measured window, of the work each keystroke and
/// hover made the server do, on the exact buffers it was sent.
fn layers(
    tr: &Tracer,
    netlist: &Netlist,
    docs: &Docs,
    sent: &[Sent],
    publish_bytes: &[f64],
) -> Vec<Metric> {
    let mut buffers: Vec<Arc<String>> = docs.base.iter().map(|t| Arc::new(t.clone())).collect();
    for (k, s) in sent.iter().enumerate() {
        let op = k as u64 + 1;
        buffers[s.mode] = Arc::clone(&s.text);
        let parsed = tr.span("json.message_parse", 0, op, |_| Json::parse(&s.line));
        std::hint::black_box(parsed.is_ok());
        let inputs: Vec<ModeInput> = tr.span("sdc.parse", 0, op, |_| {
            docs.names
                .iter()
                .zip(&buffers)
                .map(|(n, t)| ModeInput::parse_lossy(n.clone(), t))
                .collect()
        });
        let lint = tr.span("analyze.lint_fast", 0, op, |_| {
            lint_modes_fast(netlist, &inputs, 1)
        });
        std::hint::black_box(lint.is_ok());
        if s.hover {
            tr.span("core.hover_merge", 0, op, |root| {
                let Ok(bound) = tr.span("sta.bind", root, op, |_| {
                    SessionInputs::bind(netlist, &inputs)
                }) else {
                    return;
                };
                let session = MergeSession::new(netlist, &bound, &MergeOptions::default());
                tr.span("sta.analysis", root, op, |_| session.warm_up());
                let merged = tr.span("core.merge_all", root, op, |_| session.merge_all());
                std::hint::black_box(merged.is_ok());
            });
        }
    }
    let stats = tr.stats();
    let mut set = LayerSet::default();
    for (span, metric) in [
        ("workload.generate", "workload.generate_ms"),
        ("netlist.parse", "netlist.parse_ms"),
        ("json.message_parse", "json.message_parse_ms"),
        ("sdc.parse", "sdc.parse_ms"),
        ("analyze.lint_fast", "analyze.lint_fast_ms"),
        ("core.hover_merge", "core.hover_merge_ms"),
        ("sta.bind", "sta.bind_ms"),
        ("sta.analysis", "sta.analysis_ms"),
    ] {
        set.span(metric, stats.get(span));
    }
    set.samples("lsp.publish_bytes", publish_bytes, None);
    set.into_metrics()
}
