//! `daemon_mix`: the shipped `mspec serve` under two closed-loop clients.
//!
//! Set-up builds a library `.gx` directory and spawns `mspec serve --port 0`
//! with default knobs and a fresh `--cache-dir`, up to the port it reports,
//! then checks it with a `health` request. Writing the library's sources and
//! the wait for that reply are left out of the set-up time; the wait is
//! mostly the accept poll's sleep.
//!
//! In the window two client threads each open a connection, send a seeded
//! session of 4–16 requests (each after the previous reply), close it and
//! reconnect. There is no warm-up connection, no session outlives a
//! window, and no request is retried: an error or a shed request counts as
//! failed. The run ends with `stats` and `metrics` scrapes and a clean
//! `shutdown`; the daemon's stderr stays in the run directory.

use crate::gen::{self, Dag, Req, Rng, Sessions};
use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::report::{self, remove_tree, us_since, Cfg, Report};
use crate::speed::{self, Speed};
use crate::trace::{mean, median, quantile, write_spans, Span, Tracer, OP};
use mspec_core::Pipeline;
use mspec_lang::eval::{Evaluator, Value, DEFAULT_FUEL};
use mspec_lang::json::{FromJson, ToJson};
use mspec_serve::{
    parse_division, Request, RequestKind, Response, ResponseBody, RunRequest, SpecRequest,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client threads (and so connections at once): the machine's cores.
const CLIENTS: usize = 2;
/// Per thread, distinct spec requests whose residual size feeds
/// `residual_bytes`.
const SIZED_REPLIES: usize = 192;
/// One reply in this many goes to the oracle (seeded choice): spec
/// residuals are compared byte for byte with batch specialisation, `run`
/// values with the tree evaluator.
const SAMPLE_EVERY: u64 = 8;
/// The same for `run`s with a dynamic exponent, whose tree-evaluator
/// oracle costs as much as tens of daemon requests.
const SAMPLE_HEAVY_EVERY: u64 = 32;
/// In the traced run, every this many sessions ends with a `metrics`
/// scrape for the queue-depth and in-flight gauges.
const SCRAPE_EVERY: usize = 8;
/// A reply slower than this is a failure, not a hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A spawned daemon; killed and reaped on drop unless it already exited.
struct Daemon {
    child: Child,
    /// Held open so the daemon never writes to a closed pipe.
    stdout: Option<BufReader<ChildStdout>>,
    addr: String,
    /// Library artefact directory, as the daemon sees it.
    gx_dir: String,
    dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(&mut self) -> Result<(), String> {
        let mut c = Conn::open(&self.addr)?;
        let reply = c.call(RequestKind::Shutdown)?;
        if !matches!(reply.body, ResponseBody::Ok) {
            return Err(format!("shutdown refused: {reply:?}"));
        }
        drop(c);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit within 10 s of shutdown".into())
    }
}

/// One client connection speaking the JSONL protocol, without retries.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = s.set_nodelay(true);
        s.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: s,
            next_id: 1,
        })
    }

    fn call(&mut self, kind: RequestKind) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = format!("{}\n", Request { id, kind }.to_json_compact());
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read reply: {e}"))?;
        if n == 0 {
            return Err("the daemon closed the connection".into());
        }
        let reply =
            Response::from_json_str(line.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
        if reply.id != id {
            return Err(format!("reply id {} for request {id}", reply.id));
        }
        Ok(reply)
    }
}

fn spawn(cfg: &Cfg, r: usize, lib: &Dag, untimed: &mut Duration) -> Result<Daemon, String> {
    let mspec = cfg.mspec.as_ref().ok_or("daemon_mix needs --mspec PATH")?;
    let dir = cfg.run_dir.join(format!("daemon{r}"));
    let src = dir.join("lib_src");
    let gx = dir.join("lib_gx");
    let cache = dir.join("cache");
    // Writing the library's source tree is the benchmark's work, not the
    // program's: it and its writeback stay out of the set-up time.
    let t0 = Instant::now();
    for d in [&src, &cache] {
        std::fs::create_dir_all(d).map_err(|e| e.to_string())?;
    }
    for (name, text) in &lib.modules {
        std::fs::write(src.join(format!("{name}.mspec")), text).map_err(|e| e.to_string())?;
    }
    report::flush_writes();
    *untimed += t0.elapsed();
    mspec_cogen::build::build(&src, &gx, &mspec_cogen::build::BuildOptions::default())
        .map_err(|e| format!("library build: {e}"))?;
    let abs = |p: &Path| {
        p.canonicalize()
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (gx_dir, cache) = (abs(&gx)?.display().to_string(), abs(&cache)?);
    let stderr = std::fs::File::create(dir.join("daemon.stderr")).map_err(|e| e.to_string())?;
    let mut child = Command::new(mspec)
        .args(["serve", "--port", "0", "--cache-dir"])
        .arg(cache)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", mspec.display()))?;
    let stdout = child.stdout.take().map(BufReader::new);
    let mut daemon = Daemon {
        child,
        stdout,
        addr: String::new(),
        gx_dir,
        dir,
    };
    let mut line = String::new();
    let port = daemon
        .stdout
        .as_mut()
        .and_then(|out| out.read_line(&mut line).ok())
        .and_then(|_| {
            line.trim()
                .rsplit(':')
                .next()
                .and_then(|p| p.parse::<u16>().ok())
        })
        .ok_or_else(|| format!("daemon did not report its port: `{}`", line.trim()))?;
    daemon.addr = format!("127.0.0.1:{port}");
    let t0 = Instant::now();
    let reply = Conn::open(&daemon.addr)?.call(RequestKind::Health)?;
    *untimed += t0.elapsed();
    if !matches!(reply.body, ResponseBody::Health { .. }) {
        return Err(format!("health check failed: {reply:?}"));
    }
    Ok(daemon)
}

/// What came back for one request.
#[derive(Debug, Clone)]
enum Reply {
    Spec {
        memo_hit: bool,
        bytes: usize,
        residual: Option<(String, String)>,
    },
    Run {
        value: String,
        memo_hit: bool,
        compiled_hit: bool,
    },
    Failed(String),
}

/// One request of the window.
#[derive(Debug, Clone)]
struct Rec {
    req: Req,
    /// The first request of its session (its latency starts at connect).
    first: bool,
    traced: bool,
    /// Chosen (seeded) for the oracle comparison.
    sampled: bool,
    us: f64,
    reply: Reply,
}

/// Per client thread.
#[derive(Debug, Default)]
struct ClientLog {
    recs: Vec<Rec>,
    connect_us: Vec<f64>,
    sessions: usize,
    queue_depth_max: u64,
    in_flight_max: u64,
    spans: Vec<Span>,
}

fn to_kind(req: &Req, gx_dir: &str) -> RequestKind {
    match req {
        Req::Spec {
            program,
            entry,
            args,
        } => RequestKind::Spec(SpecRequest::inline(program.source(), entry, args)),
        Req::Dir { entry, args } => RequestKind::Spec(SpecRequest {
            program: None,
            dir: Some(gx_dir.to_string()),
            ..SpecRequest::inline("", entry, args)
        }),
        Req::Run {
            program,
            entry,
            args,
            values,
        } => RequestKind::Run(RunRequest {
            spec: SpecRequest::inline(program.source(), entry, args),
            values: values.clone(),
            run_fuel: None,
        }),
    }
}

fn classify(reply: Result<Response, String>, sample: bool) -> Reply {
    match reply.map(|r| r.body) {
        Ok(ResponseBody::Spec {
            entry,
            residual,
            memo_hit,
            ..
        }) => Reply::Spec {
            memo_hit,
            bytes: residual.len(),
            residual: sample.then_some((entry, residual)),
        },
        Ok(ResponseBody::Run {
            value,
            memo_hit,
            compiled_hit,
            ..
        }) => Reply::Run {
            value,
            memo_hit,
            compiled_hit,
        },
        Ok(ResponseBody::Error(e)) => Reply::Failed(format!("{}: {}", e.class, e.message)),
        Ok(other) => Reply::Failed(format!("unexpected reply {other:?}")),
        Err(e) => Reply::Failed(e),
    }
}

/// Gauge value from a metrics exposition.
fn gauge(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

fn client(cfg: &Cfg, d: &Daemon, thread: usize, lib: &Dag, start: Instant) -> ClientLog {
    let mut sessions = Sessions::new(cfg.seed, thread as u64, CLIENTS as u64, lib.clone());
    let mut sample = Rng::new(cfg.seed).fork(0x5A3 + thread as u64);
    let mut log = ClientLog::default();
    let mut tr = Tracer::new(false, start);
    let mut op = (thread as u64) << 40;
    while start.elapsed() < cfg.window() {
        let reqs = sessions.next_session();
        let traced = cfg.trace && log.sessions % 2 == 1;
        tr.set_enabled(traced);
        let t0 = Instant::now();
        tr.set_op(op);
        let conn = tr.root_span("serve.connect", |_| Conn::open(&d.addr));
        log.connect_us.push(us_since(t0));
        let mut conn = match conn {
            Ok(c) => Some(c),
            Err(e) => {
                for req in reqs {
                    log.recs.push(Rec {
                        req,
                        first: false,
                        traced,
                        sampled: false,
                        us: 0.0,
                        reply: Reply::Failed(e.clone()),
                    });
                }
                log.sessions += 1;
                continue;
            }
        };
        for (k, req) in reqs.into_iter().enumerate() {
            op += 1;
            tr.set_op(op);
            let kind = to_kind(&req, &d.gx_dir);
            let heavy = matches!(&req, Req::Run { args, .. } if args.starts_with('D'));
            let sampled = sample.below(if heavy {
                SAMPLE_HEAVY_EVERY
            } else {
                SAMPLE_EVERY
            }) == 0;
            let tq = Instant::now();
            let reply = match conn.as_mut() {
                Some(c) => tr.root_span(OP, |_| c.call(kind)),
                None => Err("connection lost earlier in the session".to_string()),
            };
            let us = if k == 0 { us_since(t0) } else { us_since(tq) };
            if reply.is_err() {
                conn = None;
            }
            let reply = classify(reply, sampled);
            log.recs.push(Rec {
                req,
                first: k == 0,
                traced,
                sampled,
                us,
                reply,
            });
        }
        log.sessions += 1;
        if cfg.trace && log.sessions % SCRAPE_EVERY == 0 {
            if let Some(Ok(Response {
                body: ResponseBody::Metrics { text },
                ..
            })) = conn.as_mut().map(|c| c.call(RequestKind::Metrics))
            {
                let g = |n| gauge(&text, n).unwrap_or(0.0) as u64;
                log.queue_depth_max = log.queue_depth_max.max(g("mspecd_queue_depth"));
                log.in_flight_max = log.in_flight_max.max(g("mspecd_in_flight"));
            }
        }
    }
    log.spans = tr.spans;
    log
}

/// Final `stats` counters and `metrics` text.
fn scrape(d: &Daemon) -> Result<(BTreeMap<String, u64>, String), String> {
    let mut c = Conn::open(&d.addr)?;
    let counters = match c.call(RequestKind::Stats)?.body {
        ResponseBody::Stats { counters } => counters.into_iter().collect(),
        other => return Err(format!("stats: unexpected reply {other:?}")),
    };
    let text = match c.call(RequestKind::Metrics)?.body {
        ResponseBody::Metrics { text } => text,
        other => return Err(format!("metrics: unexpected reply {other:?}")),
    };
    Ok((counters, text))
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let lib = gen::dag(&mut Rng::new(cfg.seed).fork(0xDA3), 24, true);
    let mut spawn_one = |r, untimed: &mut Duration| spawn(cfg, r, &lib, untimed);
    let mut teardown = |mut prev: Daemon| {
        let _ = prev.shutdown();
        for d in ["cache", "lib_src", "lib_gx"] {
            remove_tree(&prev.dir.join(d));
        }
        report::flush_writes();
    };
    let mut setups = report::Setups::default();
    let mut daemon = setups.repeat(&mut spawn_one, &mut teardown)?;
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let mut speed = Speed::default();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        // Samples the machine's speed beside the clients (untraced runs).
        let sampler = (!cfg.trace).then(|| {
            let (stop, speed) = (&stop, &mut speed);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    speed.tick();
                    std::thread::sleep(speed::PERIOD);
                }
            })
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (d, lib) = (&daemon, &lib);
                std::thread::Builder::new()
                    .stack_size(64 << 20)
                    .spawn_scoped(s, move || client(cfg, d, t, lib, start))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot spawn a client thread: {e}"))?;
        let logs = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>();
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = sampler {
            h.join()
                .map_err(|_| "the speed sampler panicked".to_string())?;
        }
        logs
    })?;
    let wall = start.elapsed().as_secs_f64();
    let (counters, text) = scrape(&daemon)?;
    let rss = report::peak_rss_mib(&daemon.child.id().to_string()).unwrap_or(0.0);
    let shutdown = daemon.shutdown();
    if !cfg.trace {
        // Set up again after the window: the two batches sample two
        // points of the run (see `report::SETUP_GAP`).
        let last = setups.repeat(&mut spawn_one, &mut teardown)?;
        teardown(last);
    }

    let mut rep = Report::default();
    if let Err(e) = shutdown {
        rep.fail(format!("clean shutdown: {e}"));
    }
    let mut recs: Vec<Rec> = logs.iter().flat_map(|l| l.recs.iter().cloned()).collect();
    rep.attempted += recs.len() as u64;
    check(cfg, &lib, &mut recs, &mut rep);

    let mut v = Values::default();
    let lat = |f: &dyn Fn(&Rec) -> bool| -> Vec<f64> {
        recs.iter()
            .filter(|r| !matches!(r.reply, Reply::Failed(_)) && f(r))
            .map(|r| r.us)
            .collect()
    };
    if cfg.trace {
        let mut spans: Vec<Span> = Vec::new();
        for l in &logs {
            let off = spans.len();
            spans.extend(l.spans.iter().map(|s| Span {
                parent: s.parent.map(|p| p + off),
                ..s.clone()
            }));
        }
        write_spans(&cfg.run_dir.join("spans.jsonl"), &spans).map_err(|e| e.to_string())?;
        let connect: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.connect_us.iter().copied())
            .collect();
        v.set_median("serve.connect_us_p50", &connect);
        let q = |label: &str| -> f64 {
            gauge(
                &text.replace(&format!("mspecd_latency_us{{quantile=\"{label}\"}}"), "LAT"),
                "LAT",
            )
            .unwrap_or(0.0)
        };
        let n = counters.get("serve.requests").copied().unwrap_or(0) as usize;
        v.set("serve.daemon_us_p50", q("0.5"), n);
        v.set("serve.daemon_us_p90", q("0.9"), n);
        let steady = lat(&|r| !r.first);
        let op50 = median(&steady).unwrap_or(0.0);
        v.set("serve.outside_us_p50", op50 - q("0.5"), steady.len());
        let spec = |hit: bool| {
            lat(&|r| {
                !r.first
                    && matches!(r.req, Req::Spec { .. })
                    && matches!(r.reply, Reply::Spec { memo_hit, .. } if memo_hit == hit)
            })
        };
        v.set_median("serve.spec_hit_us_p50", &spec(true));
        v.set_median("serve.spec_miss_us_p50", &spec(false));
        v.set_median(
            "serve.dir_us_p50",
            &lat(&|r| !r.first && matches!(r.req, Req::Dir { .. })),
        );
        v.set_median(
            "serve.run_us_p50",
            &lat(&|r| !r.first && matches!(r.req, Req::Run { .. })),
        );
        let ok: Vec<&Rec> = recs
            .iter()
            .filter(|r| !matches!(r.reply, Reply::Failed(_)))
            .collect();
        let hits = ok
            .iter()
            .filter(|r| {
                matches!(
                    r.reply,
                    Reply::Spec { memo_hit: true, .. } | Reply::Run { memo_hit: true, .. }
                )
            })
            .count();
        v.set(
            "serve.memo_hit_ratio",
            metrics::ratio(hits as f64, ok.len() as f64),
            ok.len(),
        );
        let runs: Vec<bool> = ok
            .iter()
            .filter_map(|r| match r.reply {
                Reply::Run { compiled_hit, .. } => Some(compiled_hit),
                _ => None,
            })
            .collect();
        let chits = runs.iter().filter(|h| **h).count();
        v.set(
            "serve.compiled_hit_ratio",
            metrics::ratio(chits as f64, runs.len() as f64),
            runs.len(),
        );
        for (metric, counter) in [
            (
                "serve.artefact_revalidations",
                "resident.artefact_revalidations",
            ),
            ("serve.programs_built", "resident.programs_built"),
            ("serve.errors", "serve.errors"),
            ("serve.shed", "serve.shed"),
            ("cache.disk_stores", "serve.cache.disk_stores"),
            ("cache.disk_hits", "serve.cache.disk_hits"),
        ] {
            v.set(
                metric,
                counters.get(counter).copied().unwrap_or(0) as f64,
                1,
            );
        }
        let scrapes = logs.iter().map(|l| l.sessions / SCRAPE_EVERY).sum();
        v.set(
            "serve.queue_depth_max",
            logs.iter().map(|l| l.queue_depth_max).max().unwrap_or(0) as f64,
            scrapes,
        );
        v.set(
            "serve.in_flight_max",
            logs.iter().map(|l| l.in_flight_max).max().unwrap_or(0) as f64,
            scrapes,
        );
        let traced = lat(&|r| !r.first && r.traced);
        let plain = lat(&|r| !r.first && !r.traced);
        v.set_median("bench.traced_op_us_p50", &traced);
        v.set(
            "bench.trace_overhead_ratio",
            metrics::ratio(
                median(&traced).unwrap_or(0.0),
                median(&plain).unwrap_or(0.0),
            ),
            plain.len(),
        );
        v.emit(&mut rep, PER_LAYER);
    } else {
        let (setup_s, n) = setups.median();
        v.set("setup_s", setup_s, n);
        v.set(
            "ops_per_s",
            rep.attempted as f64 / wall,
            rep.attempted as usize,
        );
        // Steady-state request latencies are the daemon's computation and
        // follow the machine's speed: they are scaled (see `speed.rs`).
        // First replies wait on the accept poll's sleep, and ops per second
        // and set-up are paced by it, by process spawns and by file
        // writes, so those stay as measured.
        let f = speed.factor();
        let scaled = |xs: &[f64]| xs.iter().map(|x| x * f).collect::<Vec<_>>();
        let steady = lat(&|r| !r.first);
        let mut u = Values::default();
        for (w, xs) in [(&mut u, steady.clone()), (&mut v, scaled(&steady))] {
            w.set_median("op_us_p50", &xs);
            w.set("op_us_p90", quantile(&xs, 0.9).unwrap_or(0.0), xs.len());
        }
        let first = lat(&|r| r.first);
        v.set_median("first_reply_us_p50", &first);
        v.set(
            "first_reply_us_p90",
            quantile(&first, 0.9).unwrap_or(0.0),
            first.len(),
        );
        let warm = lat(&|r| {
            !r.first
                && matches!(
                    r.reply,
                    Reply::Run {
                        compiled_hit: true,
                        ..
                    }
                )
        });
        u.set_median("residual_run_us_p50", &warm);
        v.set_median("residual_run_us_p50", &scaled(&warm));
        metrics::record_unscaled(&mut rep, &speed, u);
        let sizes: Vec<f64> = logs
            .iter()
            .flat_map(|l| distinct_spec_sizes(&l.recs))
            .collect();
        v.set("residual_bytes", mean(&sizes).unwrap_or(0.0), sizes.len());
        v.set("peak_rss_mib", rss, 1);
        v.set(
            "ok_frac",
            1.0 - rep.failed as f64 / rep.attempted.max(1) as f64,
            rep.attempted as usize,
        );
        v.emit(&mut rep, END_TO_END);
    }
    for d in ["cache", "lib_src", "lib_gx"] {
        remove_tree(&daemon.dir.join(d));
    }
    Ok(rep)
}

/// Residual sizes of the first [`SIZED_REPLIES`] distinct spec requests
/// of one client's stream (repeats of a hot key would let a few keys
/// decide the mean).
fn distinct_spec_sizes(recs: &[Rec]) -> Vec<f64> {
    let mut seen: Vec<&Req> = Vec::new();
    let mut out = Vec::new();
    for r in recs {
        if let Reply::Spec { bytes, .. } = r.reply {
            if !seen.contains(&&r.req) {
                seen.push(&r.req);
                out.push(bytes as f64);
                if out.len() == SIZED_REPLIES {
                    break;
                }
            }
        }
    }
    out
}

/// Failed requests count as failed; every `run` value is compared with
/// the tree evaluator on the source program; sampled spec residuals must
/// be byte-identical to batch `Pipeline::specialise` output.
fn check(cfg: &Cfg, lib: &Dag, recs: &mut [Rec], rep: &mut Report) {
    if cfg.inject_wrong {
        if let Some(r) = recs
            .iter_mut()
            .find(|r| r.sampled && matches!(r.reply, Reply::Run { .. }))
        {
            if let Reply::Run { value, .. } = &mut r.reply {
                value.push('1');
            }
        }
    }
    let build = |src: &str| Pipeline::from_source(src).map_err(|e| e.to_string());
    let pipes: [Result<Pipeline, String>; 3] =
        [build(gen::POWER), build(gen::INTERP), build(&lib.source())];
    let pipe = |key: Option<gen::Program>| -> Result<&Pipeline, String> {
        let i = match key {
            Some(gen::Program::Power) => 0,
            Some(gen::Program::Interp) => 1,
            None => 2,
        };
        pipes[i].as_ref().map_err(Clone::clone)
    };
    let mut values: BTreeMap<String, Result<String, String>> = BTreeMap::new();
    for r in recs.iter() {
        match (&r.req, &r.reply) {
            (_, Reply::Failed(e)) => rep.fail(format!("{:?}: {e}", r.req)),
            (Req::Run { .. }, Reply::Spec { .. })
            | (Req::Spec { .. } | Req::Dir { .. }, Reply::Run { .. }) => rep.fail(format!(
                "{:?}: reply of the wrong kind {:?}",
                r.req, r.reply
            )),
            (
                Req::Run {
                    program,
                    entry,
                    args,
                    values: vals,
                },
                Reply::Run { value, .. },
            ) if r.sampled => {
                let key = format!("{entry}|{args}|{vals}");
                let want = values
                    .entry(key)
                    .or_insert_with(|| oracle(pipe(Some(*program))?, entry, args, vals));
                rep.checked += 1;
                match want {
                    Ok(w) if w == value => {}
                    Ok(w) => rep.mismatch(format!(
                        "run {entry} {args} on {vals}: got {value}, oracle {w}"
                    )),
                    Err(e) => {
                        rep.mismatch(format!("run {entry} {args} on {vals}: oracle failed: {e}"))
                    }
                }
            }
            (
                req,
                Reply::Spec {
                    residual: Some((entry, text)),
                    ..
                },
            ) => {
                let (p, e, a) = match req {
                    Req::Spec {
                        program,
                        entry,
                        args,
                    } => (pipe(Some(*program)), *entry, args),
                    Req::Dir { entry, args } => (pipe(None), entry.as_str(), args),
                    Req::Run { .. } => continue,
                };
                rep.checked += 1;
                match p.and_then(|p| batch(p, e, a)) {
                    Ok((be, bt)) if be == *entry && bt == *text => {}
                    Ok(_) => rep.mismatch(format!("{e} {a}: daemon residual differs from batch")),
                    Err(err) => rep.mismatch(format!("{e} {a}: batch failed: {err}")),
                }
            }
            _ => {}
        }
    }
}

fn split_entry(entry: &str) -> Result<(&str, &str), String> {
    entry
        .split_once('.')
        .ok_or_else(|| format!("bad entry {entry}"))
}

/// Batch specialisation: `(entry, residual text)`.
fn batch(p: &Pipeline, entry: &str, args: &str) -> Result<(String, String), String> {
    let (m, f) = split_entry(entry)?;
    let s = p
        .specialise(m, f, parse_division(args)?)
        .map_err(|e| e.to_string())?;
    Ok((s.residual.entry.to_string(), s.source()))
}

/// The source program's value on the static arguments of `args` followed
/// by `values`, rendered as the daemon renders values.
fn oracle(p: &Pipeline, entry: &str, args: &str, values: &str) -> Result<String, String> {
    let (m, f) = split_entry(entry)?;
    let mut dynamic = mspec_serve::parse_values(values)?.into_iter();
    let mut full: Vec<Value> = Vec::new();
    for a in parse_division(args)? {
        match a {
            mspec_genext::SpecArg::Static(v) => full.push(v),
            _ => full.push(dynamic.next().ok_or("too few values")?),
        }
    }
    let v = Evaluator::with_limits(p.resolved(), DEFAULT_FUEL, 1_000_000)
        .call_by_name(m, f, full)
        .map_err(|e| e.to_string())?;
    Ok(format!("{v}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(req: Req, reply: Reply) -> Rec {
        Rec {
            req,
            first: false,
            traced: false,
            sampled: true,
            us: 1.0,
            reply,
        }
    }

    fn run_req(args: &str, values: &str) -> Req {
        Req::Run {
            program: gen::Program::Power,
            entry: "Power.power",
            args: args.into(),
            values: values.into(),
        }
    }

    fn run_reply(value: &str) -> Reply {
        Reply::Run {
            value: value.into(),
            memo_hit: false,
            compiled_hit: false,
        }
    }

    fn cfg(inject_wrong: bool) -> Cfg {
        Cfg {
            workload: "daemon_mix".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            mspec: None,
            run_dir: PathBuf::new(),
            inject_wrong,
        }
    }

    /// The gate compares run values with the tree evaluator and spec
    /// residuals byte for byte with batch output, and counts failures.
    #[test]
    fn gate_catches_wrong_values_residuals_and_errors() {
        let lib = gen::dag(&mut Rng::new(1), 20, true);
        let power = Pipeline::from_source(gen::POWER).expect("power compiles");
        let (entry, text) = batch(&power, "Power.power", "S:3,D").expect("specialises");
        let spec = Req::Spec {
            program: gen::Program::Power,
            entry: "Power.power",
            args: "S:3,D".into(),
        };
        let spec_reply = |t: &str| Reply::Spec {
            memo_hit: true,
            bytes: t.len(),
            residual: Some((entry.clone(), t.to_string())),
        };
        let dir = Req::Dir {
            entry: "Main.main".into(),
            args: "D".into(),
        };
        let lib_pipe = Pipeline::from_source(&lib.source()).expect("library compiles");
        let (dir_entry, dir_text) = batch(&lib_pipe, "Main.main", "D").expect("specialises");
        let dir_reply = Reply::Spec {
            memo_hit: false,
            bytes: 0,
            residual: Some((dir_entry, dir_text)),
        };

        let mut good = vec![
            rec(run_req("D,D", "5,2"), run_reply("32")),
            rec(run_req("S:4,D", "3"), run_reply("81")),
            rec(spec.clone(), spec_reply(&text)),
            rec(dir.clone(), dir_reply.clone()),
        ];
        let mut rep = Report::default();
        check(&cfg(false), &lib, &mut good, &mut rep);
        assert_eq!((rep.failed, rep.checked), (0, 4), "{:?}", rep.failures);

        let mut rep = Report::default();
        check(&cfg(true), &lib, &mut good, &mut rep);
        assert_eq!((rep.mismatches, rep.failed), (1, 1), "{:?}", rep.failures);

        let mut bad = vec![
            rec(run_req("D,D", "5,2"), run_reply("33")),
            rec(spec, spec_reply(&format!("{text} "))),
            rec(dir, run_reply("1")),
            rec(
                run_req("S:2,D", "3"),
                Reply::Failed("overloaded: queue full".into()),
            ),
        ];
        let mut rep = Report::default();
        check(&cfg(false), &lib, &mut bad, &mut rep);
        assert_eq!((rep.mismatches, rep.failed), (2, 4), "{:?}", rep.failures);
    }

    #[test]
    fn gauges_are_read_from_the_exposition() {
        let text = "# TYPE mspecd_queue_depth gauge\nmspecd_queue_depth 3\nmspecd_in_flight 2\n";
        assert_eq!(gauge(text, "mspecd_queue_depth"), Some(3.0));
        assert_eq!(gauge(text, "mspecd_in_flight"), Some(2.0));
        assert_eq!(gauge(text, "mspecd_clients"), None);
    }
}
