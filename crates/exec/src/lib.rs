//! # tdc-exec — the fleet-wide work-stealing batch executor
//!
//! One worker pool shared by every serving engine in the process, replacing
//! the per-engine statically sized pools that let a hot model starve while
//! idle models held threads. Work arrives as *sources* (anything
//! implementing [`BatchSource`], e.g. one engine's batch queue); the
//! executor schedules **tokens** — lightweight dispatch rights for one
//! source — through three structures:
//!
//! * a **sharded injector queue per QoS band** ([`QosClass::Interactive`] >
//!   [`QosClass::Standard`] > [`QosClass::Batch`]): the global, fair end.
//!   A source holds at most `ceil(pending / weight)` tokens (clamped to the
//!   pool size), and a token that still has work after its quantum goes back
//!   to the *tail* of its band — deficit-round-robin between sources, so a
//!   flooded source cannot push a sibling's token arbitrarily far back;
//! * a **per-worker local deque** (the crate-private `deque` module):
//!   ramp-up tokens for a backlogged source land here so the worker that
//!   observed the backlog keeps serving it without a trip through the
//!   global queue;
//! * **work stealing**: an idle worker first sweeps the injector bands in
//!   priority order (with a periodic lowest-first sweep so `Batch` work
//!   cannot starve), then its own deque, then steals the oldest token from
//!   a sibling's deque — capacity follows load.
//!
//! Each token dispatch runs up to `weight` batches (`weight` is the
//! source's fair-share quantum, what `RuntimeOptions::workers` became).
//! Sources never block a worker: a source whose next batch is still
//! forming returns [`SourceState::NotReady`] with a poll instant, and the
//! executor re-arms the token on a timer instead of parking a thread in
//! the batcher.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use tdc_exec::{BatchSource, Executor, ExecutorOptions, QosClass, SourceState};
//!
//! struct Countdown(AtomicUsize);
//! impl BatchSource for Countdown {
//!     fn run_one(&self) -> SourceState {
//!         match self.0.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
//!             Ok(_) => SourceState::Ran,
//!             Err(_) => SourceState::Idle,
//!         }
//!     }
//!     fn pending(&self) -> usize {
//!         self.0.load(Ordering::SeqCst)
//!     }
//! }
//!
//! let exec = Executor::new(ExecutorOptions {
//!     workers: 2,
//!     ..ExecutorOptions::default()
//! })
//! .unwrap();
//! let work = Arc::new(Countdown(AtomicUsize::new(8)));
//! let handle = exec.register("demo", 2, QosClass::Interactive, work.clone());
//! handle.notify(); // a token is queued; workers drain the source
//! while work.pending() > 0 {
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! exec.shutdown();
//! ```

mod deque;

use deque::Fifo;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest an idle worker parks before re-checking for work; notifies and
/// due timers cut the park short.
const IDLE_PARK: Duration = Duration::from_millis(20);

/// Every `ANTI_STARVATION_PERIOD`-th dispatch of a worker sweeps the QoS
/// bands lowest-priority-first, bounding how long `Batch` work can wait
/// behind a sustained `Interactive` flood.
const ANTI_STARVATION_PERIOD: u64 = 4;

/// Scheduling priority class of a source, chosen at registration.
///
/// Workers sweep injector bands in `Interactive` → `Standard` → `Batch`
/// order (with a periodic reversed sweep for anti-starvation), and the
/// admission-shed knob ([`ExecutorOptions::batch_shed_backlog`]) only ever
/// sheds `Batch`-class work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QosClass {
    /// Latency-sensitive traffic; always swept first.
    Interactive,
    /// The default class.
    #[default]
    Standard,
    /// Throughput traffic that tolerates waiting behind the other classes
    /// and may be shed at admission under interactive backlog.
    Batch,
}

impl QosClass {
    /// Every class, in band (priority) order.
    pub const ALL: [QosClass; 3] = [QosClass::Interactive, QosClass::Standard, QosClass::Batch];

    /// Index of this class's injector band (0 is highest priority).
    pub fn band(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Standard => 1,
            QosClass::Batch => 2,
        }
    }

    /// Stable wire label (`"interactive"`, `"standard"`, `"batch"`).
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Standard => "standard",
            QosClass::Batch => "batch",
        }
    }

    /// Parse a wire label back into a class.
    pub fn parse(label: &str) -> Option<QosClass> {
        match label {
            "interactive" => Some(QosClass::Interactive),
            "standard" => Some(QosClass::Standard),
            "batch" => Some(QosClass::Batch),
            _ => None,
        }
    }
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What one [`BatchSource::run_one`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// A batch was executed (or otherwise disposed of); the source made
    /// progress and may be polled again.
    Ran,
    /// Nothing is queued; the token is released until the next
    /// [`SourceHandle::notify`].
    Idle,
    /// Work is queued but its batch is still forming (waiting for
    /// batch-mates); poll again at `retry_at`. The executor re-arms the
    /// token on a timer instead of blocking a worker.
    NotReady {
        /// When the pending batch becomes releasable.
        retry_at: Instant,
    },
    /// The source is shut down; drop its tokens.
    Closed,
}

/// A producer of batch work the executor can drive.
///
/// `run_one` must be safe to call from any worker thread, concurrently up
/// to the source's token count, and must **never block waiting for more
/// work to arrive** — return [`SourceState::NotReady`] with a poll instant
/// instead.
pub trait BatchSource: Send + Sync {
    /// Take and execute at most one batch.
    fn run_one(&self) -> SourceState;

    /// Work items currently awaiting dispatch (for this crate's scheduling
    /// and telemetry; for a serving engine this is the request queue depth).
    fn pending(&self) -> usize;
}

/// Pool construction options.
#[derive(Debug, Clone)]
pub struct ExecutorOptions {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Injector shards per QoS band (pushes round-robin across shards).
    pub injector_shards: usize,
    /// Admission-shed knob: when the summed `pending()` of
    /// `Interactive`/`Standard` sources exceeds this, [`SourceHandle::
    /// should_shed`](SourceHandle::should_shed) turns true for
    /// `Batch`-class sources so callers can reject their work at admission.
    /// `usize::MAX` (the default) disables shedding.
    pub batch_shed_backlog: usize,
    /// Start with every worker quiesced (as if [`Executor::pause`] had been
    /// called); used by deterministic scheduling tests.
    pub start_paused: bool,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        ExecutorOptions {
            workers,
            injector_shards: 2,
            batch_shed_backlog: usize::MAX,
            start_paused: false,
        }
    }
}

/// Per-source telemetry snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SourceMetrics {
    /// Registration label (the model name for serving engines).
    pub label: String,
    /// QoS class wire label.
    pub qos: String,
    /// Fair-share weight (batches per token dispatch).
    pub weight: usize,
    /// Work items awaiting dispatch right now.
    pub queued: usize,
    /// Token dispatches currently executing on workers.
    pub running: usize,
    /// Batches executed from tokens a worker stole off a sibling's deque.
    pub stolen_batches: u64,
    /// Batches executed in total by the pool for this source.
    pub executed_batches: u64,
}

/// Per-QoS-band telemetry snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BandMetrics {
    /// QoS class wire label.
    pub qos: String,
    /// Summed `pending()` of the band's sources (work items).
    pub queued: usize,
    /// Dispatch tokens currently queued in the band's injector shards.
    pub tokens: usize,
}

/// Pool-wide telemetry snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExecutorMetrics {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Tokens taken from sibling deques since start.
    pub steals_total: u64,
    /// Fraction of pool time spent dispatching since start, `0.0..=1.0`.
    pub utilization: f64,
    /// One entry per QoS band, priority order.
    pub bands: Vec<BandMetrics>,
    /// One entry per registered source.
    pub sources: Vec<SourceMetrics>,
}

type Token = Arc<SourceEntry>;

struct SourceEntry {
    id: u64,
    label: String,
    weight: usize,
    qos: QosClass,
    source: Arc<dyn BatchSource>,
    /// Tokens in flight (queued, parked on a timer, or dispatching).
    outstanding: AtomicUsize,
    /// The token is parked on the formation timer; a notify or the timer
    /// firing claims it (CAS to false) and re-queues it.
    parked: AtomicBool,
    closed: AtomicBool,
    running: AtomicUsize,
    executed: AtomicU64,
    stolen: AtomicU64,
}

struct Band {
    shards: Vec<Fifo<Token>>,
    next: AtomicUsize,
}

impl Band {
    fn queued_tokens(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

/// Min-heap entry (via reversed `Ord`) for parked formation timers.
struct TimerEntry {
    at: Instant,
    token: Token,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.token.id == other.token.id
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.token.id.cmp(&self.token.id))
    }
}

struct SignalState {
    seq: u64,
    paused: bool,
    shutdown: bool,
    paused_workers: usize,
}

struct Inner {
    bands: [Band; 3],
    /// Each worker's local deque, indexed by worker; idle siblings steal
    /// from it.
    locals: Vec<Fifo<Token>>,
    sources: Mutex<Vec<Token>>,
    timers: Mutex<BinaryHeap<TimerEntry>>,
    signal: Mutex<SignalState>,
    cond: Condvar,
    steals_total: AtomicU64,
    busy_ns: Vec<AtomicU64>,
    started_at: Instant,
    worker_count: usize,
    batch_shed_backlog: usize,
    next_source_id: AtomicU64,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Inner {
    /// Bump the wake sequence and wake every parked worker.
    fn wake_all(&self) {
        let mut st = lock(&self.signal);
        st.seq = st.seq.wrapping_add(1);
        self.cond.notify_all();
    }

    fn push_token_to_band(&self, token: Token) {
        let band = &self.bands[token.qos.band()];
        let shard = band.next.fetch_add(1, Ordering::Relaxed) % band.shards.len();
        band.shards[shard].push(token);
    }

    /// Top the source's token count up toward `ceil(pending / weight)`
    /// (clamped to the pool size), re-checking `pending()` *after* any
    /// `outstanding` decrement so a push racing a finishing dispatch can
    /// never be stranded without a token. The first token goes to the
    /// source's QoS band (the fair tail position); ramp-up extras go to the
    /// calling worker's local deque where idle siblings can steal them.
    fn replenish(&self, entry: &Token, local: Option<&Fifo<Token>>) {
        let pending = entry.source.pending();
        if pending == 0 || entry.closed.load(Ordering::Acquire) {
            return;
        }
        let quantum = entry.weight.max(1);
        let target = pending.div_ceil(quantum).clamp(1, self.worker_count);
        let mut added = false;
        let mut first = true;
        loop {
            let current = entry.outstanding.load(Ordering::Acquire);
            if current >= target {
                break;
            }
            if entry
                .outstanding
                .compare_exchange(current, current + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                match (first, local) {
                    (false, Some(local)) => local.push(entry.clone()),
                    _ => self.push_token_to_band(entry.clone()),
                }
                added = true;
                first = false;
            }
        }
        if added {
            self.wake_all();
        }
    }

    /// Move parked tokens whose formation timer has come due back to their
    /// QoS band. Stale heap entries (token already claimed by a notify)
    /// are skipped.
    fn fire_due_timers(&self) {
        let now = Instant::now();
        let mut due = Vec::new();
        {
            let mut timers = lock(&self.timers);
            while timers.peek().is_some_and(|t| t.at <= now) {
                due.push(timers.pop().expect("peeked").token);
            }
        }
        let mut woke = false;
        for token in due {
            if token
                .parked
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.push_token_to_band(token);
                woke = true;
            }
        }
        if woke {
            self.wake_all();
        }
    }

    fn next_timer_at(&self) -> Option<Instant> {
        lock(&self.timers).peek().map(|t| t.at)
    }

    /// One worker's token acquisition: QoS bands priority-first (with the
    /// periodic reversed sweep), then the local deque, then steal from a
    /// sibling.
    fn find_token(
        &self,
        local: &Fifo<Token>,
        index: usize,
        dispatches: u64,
    ) -> Option<(Token, bool)> {
        let order: [usize; 3] = if dispatches % ANTI_STARVATION_PERIOD == ANTI_STARVATION_PERIOD - 1
        {
            [2, 1, 0]
        } else {
            [0, 1, 2]
        };
        for band_index in order {
            let band = &self.bands[band_index];
            let shard_count = band.shards.len();
            // Rotate the shard starting point per dispatch: a token
            // re-enqueued into one shard must not shadow a sibling's token
            // sitting in another.
            for offset in 0..shard_count {
                let shard = &band.shards[(index + dispatches as usize + offset) % shard_count];
                if let Some(token) = shard.pop() {
                    return Some((token, false));
                }
            }
        }
        if let Some(token) = local.pop() {
            return Some((token, false));
        }
        for offset in 1..self.locals.len() {
            let victim = (index + offset) % self.locals.len();
            if let Some(token) = self.locals[victim].pop() {
                self.steals_total.fetch_add(1, Ordering::Relaxed);
                return Some((token, true));
            }
        }
        None
    }

    /// Run one token: up to `weight` batches, then hand the token back to
    /// the band tail (or park it on the formation timer, or drop it).
    fn dispatch(&self, index: usize, entry: &Token, local: &Fifo<Token>, via_steal: bool) {
        if entry.closed.load(Ordering::Acquire) {
            entry.outstanding.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        let quantum = entry.weight.max(1);
        let started = Instant::now();
        entry.running.fetch_add(1, Ordering::AcqRel);
        let mut ran = 0u64;
        let mut retry_at = None;
        while (ran as usize) < quantum {
            match entry.source.run_one() {
                SourceState::Ran => ran += 1,
                SourceState::Idle => break,
                SourceState::NotReady { retry_at: at } => {
                    retry_at = Some(at);
                    break;
                }
                SourceState::Closed => {
                    entry.closed.store(true, Ordering::Release);
                    break;
                }
            }
        }
        entry.running.fetch_sub(1, Ordering::AcqRel);
        entry.executed.fetch_add(ran, Ordering::Relaxed);
        if via_steal {
            entry.stolen.fetch_add(ran, Ordering::Relaxed);
        }
        self.busy_ns[index].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if entry.closed.load(Ordering::Acquire) {
            entry.outstanding.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        if let Some(at) = retry_at {
            // The batch is still forming. A forming batch needs exactly one
            // poller: the first token to get here parks on the timer (still
            // holding its outstanding slot); any sibling token observing the
            // same NotReady is redundant and releases its slot — otherwise
            // two parked tokens would share the single `parked` flag and the
            // loser's slot would leak, starving the source of tokens for
            // good. A notify() racing the successful park simply re-polls
            // the source early — run_one is idempotent on a not-ready batch.
            if entry
                .parked
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                lock(&self.timers).push(TimerEntry {
                    at,
                    token: entry.clone(),
                });
            } else {
                entry.outstanding.fetch_sub(1, Ordering::AcqRel);
            }
            return;
        }
        entry.outstanding.fetch_sub(1, Ordering::AcqRel);
        self.replenish(entry, Some(local));
    }
}

fn worker_loop(inner: Arc<Inner>, index: usize) {
    let local = &inner.locals[index];
    let mut dispatches: u64 = 0;
    loop {
        let seen = {
            let mut st = lock(&inner.signal);
            if st.paused && !st.shutdown {
                st.paused_workers += 1;
                inner.cond.notify_all();
                while st.paused && !st.shutdown {
                    st = match inner.cond.wait(st) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                st.paused_workers -= 1;
            }
            if st.shutdown {
                return;
            }
            st.seq
        };
        inner.fire_due_timers();
        if let Some((token, via_steal)) = inner.find_token(local, index, dispatches) {
            dispatches += 1;
            inner.dispatch(index, &token, local, via_steal);
            continue;
        }
        let timeout = inner
            .next_timer_at()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(IDLE_PARK)
            .min(IDLE_PARK)
            .max(Duration::from_micros(100));
        let st = lock(&inner.signal);
        if st.seq == seen && !st.shutdown && !st.paused {
            let _ = inner.cond.wait_timeout(st, timeout);
        }
    }
}

/// The shared worker pool. See the crate docs for the scheduling model.
pub struct Executor {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Executor {
    /// Spawn the pool. Fails only if a worker thread cannot be spawned.
    pub fn new(options: ExecutorOptions) -> std::io::Result<Executor> {
        let workers = options.workers.max(1);
        let shards = options.injector_shards.max(1);
        let make_band = || Band {
            shards: (0..shards).map(|_| Fifo::new()).collect(),
            next: AtomicUsize::new(0),
        };
        let inner = Arc::new(Inner {
            bands: [make_band(), make_band(), make_band()],
            locals: (0..workers).map(|_| Fifo::new()).collect(),
            sources: Mutex::new(Vec::new()),
            timers: Mutex::new(BinaryHeap::new()),
            signal: Mutex::new(SignalState {
                seq: 0,
                paused: options.start_paused,
                shutdown: false,
                paused_workers: 0,
            }),
            cond: Condvar::new(),
            steals_total: AtomicU64::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            started_at: Instant::now(),
            worker_count: workers,
            batch_shed_backlog: options.batch_shed_backlog,
            next_source_id: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let worker_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("tdc-exec-worker-{index}"))
                .spawn(move || worker_loop(worker_inner, index));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind cleanly: stop the workers already running.
                    {
                        let mut st = lock(&inner.signal);
                        st.shutdown = true;
                        inner.cond.notify_all();
                    }
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Executor {
            inner,
            handles: Mutex::new(handles),
        })
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.worker_count
    }

    /// Register a source under `label` with fair-share `weight` (batches
    /// per token dispatch) and QoS class. The returned handle is the
    /// source's scheduling interface; dropping it deregisters the source.
    pub fn register(
        &self,
        label: impl Into<String>,
        weight: usize,
        qos: QosClass,
        source: Arc<dyn BatchSource>,
    ) -> SourceHandle {
        let entry = Arc::new(SourceEntry {
            id: self.inner.next_source_id.fetch_add(1, Ordering::Relaxed),
            label: label.into(),
            weight: weight.max(1),
            qos,
            source,
            outstanding: AtomicUsize::new(0),
            parked: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        });
        lock(&self.inner.sources).push(Arc::clone(&entry));
        SourceHandle {
            inner: Arc::clone(&self.inner),
            entry,
        }
    }

    /// Quiesce the pool: every worker finishes its current dispatch and
    /// parks; queued tokens stay queued. Returns once all workers are
    /// parked. Used by deterministic scheduling tests.
    pub fn pause(&self) {
        let mut st = lock(&self.inner.signal);
        st.paused = true;
        st.seq = st.seq.wrapping_add(1);
        self.inner.cond.notify_all();
        while st.paused_workers < self.inner.worker_count && !st.shutdown {
            st = match self.inner.cond.wait_timeout(st, Duration::from_millis(5)) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Restart a paused pool.
    pub fn resume(&self) {
        let mut st = lock(&self.inner.signal);
        st.paused = false;
        st.seq = st.seq.wrapping_add(1);
        self.inner.cond.notify_all();
    }

    /// Pool-wide telemetry snapshot.
    pub fn metrics(&self) -> ExecutorMetrics {
        let sources: Vec<Token> = lock(&self.inner.sources).clone();
        let mut bands: Vec<BandMetrics> = QosClass::ALL
            .iter()
            .map(|qos| BandMetrics {
                qos: qos.label().to_string(),
                queued: 0,
                tokens: self.inner.bands[qos.band()].queued_tokens(),
            })
            .collect();
        let source_metrics: Vec<SourceMetrics> = sources
            .iter()
            .map(|entry| {
                let queued = entry.source.pending();
                bands[entry.qos.band()].queued += queued;
                SourceMetrics {
                    label: entry.label.clone(),
                    qos: entry.qos.label().to_string(),
                    weight: entry.weight,
                    queued,
                    running: entry.running.load(Ordering::Relaxed),
                    stolen_batches: entry.stolen.load(Ordering::Relaxed),
                    executed_batches: entry.executed.load(Ordering::Relaxed),
                }
            })
            .collect();
        let busy_ns: u64 = self
            .inner
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        let elapsed_ns =
            self.inner.started_at.elapsed().as_nanos() as f64 * self.inner.worker_count as f64;
        ExecutorMetrics {
            workers: self.inner.worker_count,
            steals_total: self.inner.steals_total.load(Ordering::Relaxed),
            utilization: if elapsed_ns > 0.0 {
                (busy_ns as f64 / elapsed_ns).clamp(0.0, 1.0)
            } else {
                0.0
            },
            bands,
            sources: source_metrics,
        }
    }

    /// Stop and join every worker. Idempotent; sources should be drained
    /// first (any still-queued tokens are dropped).
    pub fn shutdown(&self) {
        {
            let mut st = lock(&self.inner.signal);
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            st.seq = st.seq.wrapping_add(1);
            self.inner.cond.notify_all();
        }
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One registered source's scheduling interface: notify on new work, query
/// counters, consult the admission-shed knob. Dropping the handle
/// deregisters the source (outstanding tokens are discarded as workers
/// encounter them).
pub struct SourceHandle {
    inner: Arc<Inner>,
    entry: Token,
}

impl SourceHandle {
    /// Tell the pool the source has (possibly) new work: unparks a token
    /// waiting on the formation timer, or tops the token count up toward
    /// the source's backlog-proportional target. Call after every enqueue
    /// — and after closing the source's queue, so drains are dispatched
    /// promptly.
    pub fn notify(&self) {
        if self
            .entry
            .parked
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // The parked batch may have just become full (or the queue
            // closed): poll now instead of at the formation timer.
            self.inner.push_token_to_band(Arc::clone(&self.entry));
            self.inner.wake_all();
            return;
        }
        self.inner.replenish(&self.entry, None);
    }

    /// QoS class the source registered under.
    pub fn qos(&self) -> QosClass {
        self.entry.qos
    }

    /// Fair-share weight the source registered under.
    pub fn weight(&self) -> usize {
        self.entry.weight
    }

    /// Batches executed from stolen tokens.
    pub fn stolen_batches(&self) -> u64 {
        self.entry.stolen.load(Ordering::Relaxed)
    }

    /// Batches executed in total.
    pub fn executed_batches(&self) -> u64 {
        self.entry.executed.load(Ordering::Relaxed)
    }

    /// Token dispatches currently executing.
    pub fn running(&self) -> usize {
        self.entry.running.load(Ordering::Relaxed)
    }

    /// Telemetry snapshot for this source.
    pub fn metrics(&self) -> SourceMetrics {
        SourceMetrics {
            label: self.entry.label.clone(),
            qos: self.entry.qos.label().to_string(),
            weight: self.entry.weight,
            queued: self.entry.source.pending(),
            running: self.entry.running.load(Ordering::Relaxed),
            stolen_batches: self.entry.stolen.load(Ordering::Relaxed),
            executed_batches: self.entry.executed.load(Ordering::Relaxed),
        }
    }

    /// Admission-shed check for `Batch`-class sources: true when the pool's
    /// higher-priority backlog (summed `Interactive`/`Standard` `pending()`)
    /// exceeds [`ExecutorOptions::batch_shed_backlog`]. Always false for
    /// the other classes and when shedding is disabled.
    pub fn should_shed(&self) -> bool {
        if self.entry.qos != QosClass::Batch {
            return false;
        }
        let limit = self.inner.batch_shed_backlog;
        if limit == usize::MAX {
            return false;
        }
        let higher: usize = lock(&self.inner.sources)
            .iter()
            .filter(|s| s.qos.band() < QosClass::Batch.band())
            .map(|s| s.source.pending())
            .sum();
        higher > limit
    }

    /// The configured [`ExecutorOptions::batch_shed_backlog`].
    pub fn shed_backlog_limit(&self) -> usize {
        self.inner.batch_shed_backlog
    }
}

impl Drop for SourceHandle {
    fn drop(&mut self) {
        self.entry.closed.store(true, Ordering::Release);
        let id = self.entry.id;
        lock(&self.inner.sources).retain(|s| s.id != id);
        self.inner.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source that pops closures off a queue; `NotReady`/`Closed` can be
    /// scripted by the closure return.
    struct ScriptSource {
        queue: Mutex<std::collections::VecDeque<Box<dyn FnOnce() -> SourceState + Send>>>,
        closed: AtomicBool,
    }

    impl ScriptSource {
        fn new() -> Self {
            ScriptSource {
                queue: Mutex::new(std::collections::VecDeque::new()),
                closed: AtomicBool::new(false),
            }
        }

        fn push(&self, step: impl FnOnce() -> SourceState + Send + 'static) {
            lock(&self.queue).push_back(Box::new(step));
        }
    }

    impl BatchSource for ScriptSource {
        fn run_one(&self) -> SourceState {
            if self.closed.load(Ordering::Acquire) {
                return SourceState::Closed;
            }
            match lock(&self.queue).pop_front() {
                Some(step) => step(),
                None => SourceState::Idle,
            }
        }
        fn pending(&self) -> usize {
            lock(&self.queue).len()
        }
    }

    fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        while Instant::now() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        done()
    }

    #[test]
    fn drains_multiple_sources_completely() {
        let exec = Executor::new(ExecutorOptions {
            workers: 3,
            ..ExecutorOptions::default()
        })
        .unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let sources: Vec<_> = (0..3)
            .map(|i| {
                let src = Arc::new(ScriptSource::new());
                for _ in 0..20 {
                    let counter = Arc::clone(&counter);
                    src.push(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                        SourceState::Ran
                    });
                }
                let handle = exec.register(
                    format!("src-{i}"),
                    1 + i,
                    QosClass::ALL[i],
                    src.clone() as Arc<dyn BatchSource>,
                );
                handle.notify();
                (src, handle)
            })
            .collect();
        assert!(
            wait_until(5000, || counter.load(Ordering::SeqCst) == 60),
            "all 60 batches must run, got {}",
            counter.load(Ordering::SeqCst)
        );
        let executed: u64 = sources.iter().map(|(_, h)| h.executed_batches()).sum();
        assert_eq!(executed, 60);
        let m = exec.metrics();
        assert_eq!(m.workers, 3);
        assert_eq!(m.sources.len(), 3);
        assert!(m.utilization >= 0.0 && m.utilization <= 1.0);
        assert!(m.bands.iter().all(|b| b.queued == 0));
        exec.shutdown();
    }

    #[test]
    fn weighted_round_robin_interleaves_a_flood_with_a_sibling() {
        // One worker and one injector shard, paused while the queues fill:
        // dispatch order is then purely the scheduler's, so the assertion
        // is deterministic.
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            injector_shards: 1,
            start_paused: true,
            ..ExecutorOptions::default()
        })
        .unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let make = |tag: char, n: usize| {
            let src = Arc::new(ScriptSource::new());
            for _ in 0..n {
                let order = Arc::clone(&order);
                src.push(move || {
                    lock(&order).push(tag);
                    SourceState::Ran
                });
            }
            src
        };
        let flood = make('a', 6);
        let sibling = make('b', 2);
        let flood_handle = exec.register(
            "flood",
            1,
            QosClass::Standard,
            flood.clone() as Arc<dyn BatchSource>,
        );
        let sibling_handle = exec.register(
            "sibling",
            1,
            QosClass::Standard,
            sibling.clone() as Arc<dyn BatchSource>,
        );
        flood_handle.notify();
        sibling_handle.notify();
        exec.resume();
        assert!(wait_until(5000, || lock(&order).len() == 8));
        let observed: String = lock(&order).iter().collect();
        // Tokens alternate off the band tail: the sibling's two batches run
        // at positions 2 and 4, not behind the whole flood.
        assert_eq!(observed, "ababaaaa");
        exec.shutdown();
    }

    #[test]
    fn qos_bands_are_swept_in_priority_order() {
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            start_paused: true,
            ..ExecutorOptions::default()
        })
        .unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let make = |tag: char| {
            let src = Arc::new(ScriptSource::new());
            let order = Arc::clone(&order);
            src.push(move || {
                lock(&order).push(tag);
                SourceState::Ran
            });
            src
        };
        let batch = make('b');
        let interactive = make('i');
        // Batch-class work is enqueued *first*…
        let batch_handle = exec.register(
            "bulk",
            1,
            QosClass::Batch,
            batch.clone() as Arc<dyn BatchSource>,
        );
        batch_handle.notify();
        let interactive_handle = exec.register(
            "hot",
            1,
            QosClass::Interactive,
            interactive.clone() as Arc<dyn BatchSource>,
        );
        interactive_handle.notify();
        exec.resume();
        assert!(wait_until(5000, || lock(&order).len() == 2));
        // …but the interactive band is swept first.
        assert_eq!(*lock(&order), vec!['i', 'b']);
        exec.shutdown();
    }

    #[test]
    fn formation_timer_re_polls_a_not_ready_source() {
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            ..ExecutorOptions::default()
        })
        .unwrap();
        let src = Arc::new(ScriptSource::new());
        let ran = Arc::new(AtomicBool::new(false));
        {
            let ran = Arc::clone(&ran);
            src.push(move || {
                ran.store(true, Ordering::SeqCst);
                SourceState::Ran
            });
        }
        // First poll reports the batch still forming for 20 ms; the
        // executor must come back on its own, with no further notify.
        let retry_at = Instant::now() + Duration::from_millis(20);
        let not_ready_seen = Arc::new(AtomicBool::new(false));
        let handle = {
            struct Gated {
                inner: Arc<ScriptSource>,
                retry_at: Instant,
                armed: AtomicBool,
                seen: Arc<AtomicBool>,
            }
            impl BatchSource for Gated {
                fn run_one(&self) -> SourceState {
                    if self
                        .armed
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.seen.store(true, Ordering::SeqCst);
                        return SourceState::NotReady {
                            retry_at: self.retry_at,
                        };
                    }
                    self.inner.run_one()
                }
                fn pending(&self) -> usize {
                    self.inner.pending()
                }
            }
            exec.register(
                "gated",
                1,
                QosClass::Standard,
                Arc::new(Gated {
                    inner: src.clone(),
                    retry_at,
                    armed: AtomicBool::new(false),
                    seen: Arc::clone(&not_ready_seen),
                }) as Arc<dyn BatchSource>,
            )
        };
        handle.notify();
        assert!(wait_until(5000, || ran.load(Ordering::SeqCst)));
        assert!(not_ready_seen.load(Ordering::SeqCst));
        assert!(
            Instant::now() >= retry_at,
            "the batch ran only after the timer"
        );
        exec.shutdown();
    }

    #[test]
    fn batch_class_sheds_under_interactive_backlog() {
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            batch_shed_backlog: 4,
            start_paused: true,
            ..ExecutorOptions::default()
        })
        .unwrap();
        let hot = Arc::new(ScriptSource::new());
        for _ in 0..8 {
            hot.push(|| SourceState::Ran);
        }
        let _hot_handle = exec.register(
            "hot",
            1,
            QosClass::Interactive,
            hot.clone() as Arc<dyn BatchSource>,
        );
        let bulk = Arc::new(ScriptSource::new());
        let bulk_handle = exec.register(
            "bulk",
            1,
            QosClass::Batch,
            bulk.clone() as Arc<dyn BatchSource>,
        );
        assert!(
            bulk_handle.should_shed(),
            "8 interactive pending > limit 4 must shed batch admission"
        );
        assert_eq!(bulk_handle.shed_backlog_limit(), 4);
        // Drain the interactive backlog; shedding stops.
        _hot_handle.notify();
        exec.resume();
        assert!(wait_until(5000, || hot.pending() == 0
            && _hot_handle.executed_batches() == 8));
        assert!(!bulk_handle.should_shed());
        exec.shutdown();
    }

    #[test]
    fn dropping_the_handle_deregisters_and_discards_tokens() {
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            start_paused: true,
            ..ExecutorOptions::default()
        })
        .unwrap();
        let src = Arc::new(ScriptSource::new());
        src.push(|| SourceState::Ran);
        let handle = exec.register(
            "gone",
            1,
            QosClass::Standard,
            src.clone() as Arc<dyn BatchSource>,
        );
        handle.notify();
        drop(handle);
        assert_eq!(exec.metrics().sources.len(), 0);
        exec.resume();
        // The queued token is discarded: the work never runs.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(src.pending(), 1);
        exec.shutdown();
    }

    #[test]
    fn pause_quiesces_until_resume() {
        let exec = Executor::new(ExecutorOptions {
            workers: 2,
            ..ExecutorOptions::default()
        })
        .unwrap();
        exec.pause();
        let src = Arc::new(ScriptSource::new());
        let ran = Arc::new(AtomicBool::new(false));
        {
            let ran = Arc::clone(&ran);
            src.push(move || {
                ran.store(true, Ordering::SeqCst);
                SourceState::Ran
            });
        }
        let handle = exec.register(
            "paused",
            1,
            QosClass::Standard,
            src.clone() as Arc<dyn BatchSource>,
        );
        handle.notify();
        std::thread::sleep(Duration::from_millis(30));
        assert!(!ran.load(Ordering::SeqCst), "paused pool must not dispatch");
        exec.resume();
        assert!(wait_until(5000, || ran.load(Ordering::SeqCst)));
        exec.shutdown();
    }

    #[test]
    fn qos_class_labels_round_trip() {
        for qos in QosClass::ALL {
            assert_eq!(QosClass::parse(qos.label()), Some(qos));
            assert_eq!(qos.to_string(), qos.label());
        }
        assert_eq!(QosClass::parse("bogus"), None);
        assert_eq!(QosClass::default(), QosClass::Standard);
        assert!(QosClass::Interactive.band() < QosClass::Batch.band());
    }
}
