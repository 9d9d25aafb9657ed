//! The daemon proper: accept loop, connection handlers, worker pool,
//! graceful drain.
//!
//! Life of a work request:
//!
//! 1. A connection thread reads and parses the frame, derives the
//!    request's [`CancelToken`] from its deadline (or the server default),
//!    and asks the [`Coalescer`] for admission. Admission is atomic:
//!    result-cache hit, join of an identical in-flight execution, a fresh
//!    lead pushed onto the bounded queue (journaled `pending` first), or a
//!    shed (`overloaded` + retry hint) when the queue is full.
//! 2. A worker pops the job. If its deadline already passed while queued
//!    it answers `deadline` without executing; otherwise the [`Executor`]
//!    runs the campaign under the token.
//! 3. The response is broadcast through the coalescer to the lead and
//!    every joiner, journaled `done` (unless it was a deadline — those
//!    stay pending so a restart finishes the work), and sampled into the
//!    latency statistics.
//!
//! Drain (SIGTERM or a `shutdown` request) stops intake — new work gets a
//! `draining` response, the accept loop stops — closes the queue, lets
//! the workers finish every accepted job, and returns so the process can
//! exit 0.

use crate::coalesce::{Admission, Coalescer};
use crate::exec::Executor;
use crate::journal::{request_hash, RequestJournal};
use crate::protocol::{
    parse_request, read_frame, write_frame, Request, Response, Status, WorkRequest,
};
use crate::queue::{Tier, TieredQueue};
use crate::stats::ServeStats;
use aix_core::{CancelToken, EngineOptions};
use aix_obs::names::serve as names;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection keeps waiting for its response *past* the
/// request deadline: enough for the worker to assemble and send the
/// partial `deadline` response, after which the connection fabricates one
/// so the client never hangs.
const RESPONSE_GRACE: Duration = Duration::from_secs(2);

/// How the daemon is configured; the CLI flags map onto these fields.
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// If set, the bound address is written here (for scripts and tests
    /// that bind port 0).
    pub addr_file: Option<PathBuf>,
    /// Worker threads executing campaigns.
    pub workers: usize,
    /// Bounded queue capacity; beyond it requests are shed.
    pub queue_cap: usize,
    /// Default deadline applied to requests that carry none; `None` lets
    /// such requests run unbounded.
    pub default_deadline: Option<Duration>,
    /// Crash (`exit(101)`) on a serve-stage injected panic instead of
    /// degrading to an `error` response — the crash-recovery tests' hook.
    pub crash_on_panic: bool,
    /// Request journal path; `None` disables crash recovery.
    pub journal_path: Option<PathBuf>,
    /// Base engine options each request's engine clones.
    pub engine: EngineOptions,
}

impl ServerConfig {
    /// Loopback defaults: free port, two workers, a small queue, no
    /// default deadline, journal and engine dirs from the environment.
    #[must_use]
    pub fn local_default(engine: EngineOptions) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            addr_file: None,
            workers: 2,
            queue_cap: 8,
            default_deadline: None,
            crash_on_panic: false,
            journal_path: None,
            engine,
        }
    }
}

struct Job {
    work: Box<WorkRequest>,
    token: CancelToken,
    fingerprint: String,
    hash: String,
}

struct Shared {
    queue: TieredQueue<Job>,
    coalescer: Coalescer,
    stats: ServeStats,
    journal: Option<RequestJournal>,
    executor: Executor,
    draining: AtomicBool,
    default_deadline: Option<Duration>,
}

impl Shared {
    fn retry_after_ms(&self) -> u64 {
        // Hint roughly one median campaign; floor it so clients with an
        // empty latency window still back off meaningfully.
        let (p50, _) = self.stats.latency_percentiles_ms();
        (p50 as u64).max(100)
    }
}

/// A bound, journal-replayed daemon ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
}

impl Server {
    /// Binds the listener, opens and replays the request journal, and
    /// writes the address file. Replay happens before the first accept:
    /// each still-pending journaled request is re-executed (the
    /// deterministic engine cache makes it cheap and byte-identical) and
    /// its response seeded into the result cache.
    ///
    /// # Errors
    ///
    /// Returns I/O errors binding the address or opening the journal.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        if let Some(path) = &config.addr_file {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, format!("{addr}\n"))?;
        }
        let executor = Executor::new(config.engine, config.crash_on_panic);
        let coalescer = Coalescer::new();
        let journal = match &config.journal_path {
            Some(path) => {
                let (journal, recovered) = RequestJournal::open(path)?;
                if recovered.torn_lines > 0 {
                    aix_obs::warn!(
                        "serve journal: skipped {} torn line(s) at {}",
                        recovered.torn_lines,
                        path.display()
                    );
                }
                for (hash, wire) in recovered.pending {
                    replay(&executor, &coalescer, &journal, &hash, &wire);
                }
                Some(journal)
            }
            None => None,
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                queue: TieredQueue::new(config.queue_cap),
                coalescer,
                stats: ServeStats::default(),
                journal,
                executor,
                draining: AtomicBool::new(false),
                default_deadline: config.default_deadline,
            }),
            workers: config.workers.max(1),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Returns the socket error if the listener is gone.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop until drain (a `shutdown` request or SIGTERM),
    /// then finishes every accepted job and returns.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the listener setup; per-connection errors
    /// only terminate that connection.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let workers: Vec<_> = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        while !self.shared.draining.load(Ordering::SeqCst) && !sigterm_pending() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_connection(&shared, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }

        // Graceful drain: no new work, finish the backlog, then give the
        // connection threads a beat to flush their final frames.
        self.shared.draining.store(true, Ordering::SeqCst);
        aix_obs::count!(names::DRAIN, queue_depth = self.shared.queue.depth());
        self.shared.queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        std::thread::sleep(Duration::from_millis(100));
        Ok(())
    }
}

/// Re-executes one journaled request at startup. The serve-stage fault
/// probe is skipped — the request was already admitted before the crash,
/// and re-tripping an injected crash here would crash-loop the daemon.
/// The entry is marked done regardless of outcome (recovery attempts are
/// once-per-restart, never an infinite replay loop); only `ok` responses
/// seed the result cache.
fn replay(
    executor: &Executor,
    coalescer: &Coalescer,
    journal: &RequestJournal,
    hash: &str,
    wire: &str,
) {
    let span = aix_obs::span!(names::SPAN_REPLAY, hash = hash);
    let _span = span;
    if let Ok(Request::Work(work)) = parse_request(wire) {
        let response = executor.run(&work, &CancelToken::new(), false);
        if response.status() == "ok" {
            coalescer.seed_cache(&work.fingerprint(), &response.to_wire());
        }
    }
    let _ = journal.record_done(hash);
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        // Admission appended the job's `pending` line; make it durable
        // before the job runs. This is the journal's only fsync.
        if let Some(journal) = &shared.journal {
            let _ = journal.sync();
        }
        let (interactive, bulk) = shared.queue.depths();
        aix_obs::gauge!(names::QUEUE_DEPTH, (interactive + bulk) as f64);
        aix_obs::gauge!(names::QUEUE_DEPTH_INTERACTIVE, interactive as f64);
        aix_obs::gauge!(names::QUEUE_DEPTH_BULK, bulk as f64);
        let response = if job.token.is_cancelled() {
            ServeStats::bump(&shared.stats.deadline_exceeded);
            aix_obs::count!(names::DEADLINE, at = "queued");
            Response::new(Status::DeadlineExceeded)
                .with("error", "deadline expired while queued")
        } else {
            let span = aix_obs::span!(
                names::SPAN_REQUEST,
                op = job.work.op.token(),
                fingerprint = job.fingerprint.as_str()
            );
            let started = Instant::now();
            let response = shared.executor.run(&job.work, &job.token, true);
            shared.stats.record_latency(started.elapsed());
            drop(span);
            if response.status() == "deadline" {
                ServeStats::bump(&shared.stats.deadline_exceeded);
                aix_obs::count!(names::DEADLINE, at = "executing");
            }
            response
        };
        let status = response.status().to_owned();
        ServeStats::bump(&shared.stats.completed);
        if status == "error" {
            ServeStats::bump(&shared.stats.errors);
        }
        aix_obs::count!(names::COMPLETED, status = status.as_str());
        shared
            .coalescer
            .complete(&job.fingerprint, &response.to_wire(), status == "ok");
        // Deadline outcomes stay pending: a restarted daemon finishes the
        // work with no deadline and caches the full result.
        if status != "deadline" {
            if let Some(journal) = &shared.journal {
                let _ = journal.record_done(&job.hash);
            }
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        let response = match parse_request(&payload) {
            Ok(Request::Status) => Response::new(Status::Ok).with_fields(
                shared
                    .stats
                    .snapshot_fields(shared.queue.depths(), shared.draining.load(Ordering::SeqCst)),
            ),
            Ok(Request::Shutdown) => {
                shared.draining.store(true, Ordering::SeqCst);
                Response::new(Status::Ok).with("draining", true)
            }
            Ok(Request::Work(work)) => handle_work(shared, *work),
            Err(e) => Response::new(Status::Error).with("error", e.to_string()),
        };
        if write_frame(&mut stream, &response.to_wire()).is_err() {
            return;
        }
        let _ = stream.flush();
    }
}

fn handle_work(shared: &Shared, work: WorkRequest) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::new(Status::Draining).with("error", "daemon is draining");
    }
    let deadline = work.deadline.or(shared.default_deadline);
    let token = match deadline {
        Some(budget) => CancelToken::deadline_in(budget),
        None => CancelToken::new(),
    };
    let fingerprint = work.fingerprint();
    let hash = request_hash(&fingerprint);
    let wire = work.to_wire();
    let tier = work.op.tier();
    let job = Job {
        work: Box::new(work),
        token,
        fingerprint: fingerprint.clone(),
        hash: hash.clone(),
    };
    let admission = shared.coalescer.admit(&fingerprint, || {
        // Journal first, push second: a crash between the two replays a
        // request that never ran (harmless), while the reverse order could
        // execute a request that recovery has no record of.
        if let Some(journal) = &shared.journal {
            let _ = journal.record_pending(&hash, &wire);
        }
        let pushed = shared.queue.try_push(job, tier);
        if pushed.is_err() {
            if let Some(journal) = &shared.journal {
                let _ = journal.record_done(&hash);
            }
        }
        pushed
    });
    let receiver = match admission {
        Admission::Cached(wire) => {
            ServeStats::bump(&shared.stats.coalesced);
            aix_obs::count!(names::COALESCED, kind = "cached");
            return Response::from_wire(&wire)
                .unwrap_or_else(|_| Response::new(Status::Error).with("error", "corrupt cache"));
        }
        Admission::Joined(receiver) => {
            ServeStats::bump(&shared.stats.coalesced);
            aix_obs::count!(names::COALESCED, kind = "joined");
            receiver
        }
        Admission::Lead(receiver) => {
            ServeStats::bump(&shared.stats.accepted);
            aix_obs::count!(names::ACCEPTED, depth = shared.queue.depth());
            receiver
        }
        Admission::Shed => {
            ServeStats::bump(&shared.stats.shed);
            ServeStats::bump(match tier {
                Tier::Interactive => &shared.stats.shed_interactive,
                Tier::Bulk => &shared.stats.shed_bulk,
            });
            aix_obs::count!(names::SHED, depth = shared.queue.depth(), tier = tier.token());
            return Response::new(Status::Overloaded)
                .with("retry_after_ms", shared.retry_after_ms())
                .with("queue_depth", shared.queue.depth())
                .with("tier", tier.token());
        }
        Admission::Closed => {
            return Response::new(Status::Draining).with("error", "daemon is draining")
        }
    };
    let wire = match deadline {
        Some(budget) => match receiver.recv_timeout(budget + RESPONSE_GRACE) {
            Ok(wire) => wire,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                ServeStats::bump(&shared.stats.deadline_exceeded);
                aix_obs::count!(names::DEADLINE, at = "waiting");
                return Response::new(Status::DeadlineExceeded)
                    .with("error", "deadline expired awaiting the shared execution");
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return Response::new(Status::Error).with("error", "execution dropped")
            }
        },
        None => match receiver.recv() {
            Ok(wire) => wire,
            Err(_) => return Response::new(Status::Error).with("error", "execution dropped"),
        },
    };
    Response::from_wire(&wire)
        .unwrap_or_else(|_| Response::new(Status::Error).with("error", "corrupt response"))
}

/// SIGTERM handling: a raw async-signal-safe flag, installed only by the
/// CLI's `aix serve` entry point (library users and tests drain via the
/// `shutdown` request instead).
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static FLAG: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
        }
    }
}

/// Installs the SIGTERM → graceful-drain hook (unix only; a no-op
/// elsewhere).
pub fn install_sigterm_drain() {
    #[cfg(unix)]
    sigterm::install();
}

fn sigterm_pending() -> bool {
    #[cfg(unix)]
    {
        sigterm::FLAG.load(Ordering::SeqCst)
    }
    #[cfg(not(unix))]
    {
        false
    }
}
