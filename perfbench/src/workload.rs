//! The three workloads: their generated inputs, set-up, closed-loop
//! clients and the untraced measurement through `FrontDoor`.
//!
//! Why these three: `xsltmark_uncached` puts nearly all its time in the
//! execution tiers (SQL/XML executor, view materialisation, XQuery, the
//! XSLTVM, serialization); `lookup_churn` puts it in the front-door layers
//! (result and plan caches, planning, admission, B-tree probes, catalog
//! lock waits and reindexing); `scan_paged` is the only one whose data
//! outgrows the buffer pool, so it loads `relstore::pool` and makes peak
//! memory follow full-view materialisation.

use crate::oracle::{digest, Digest};
use crate::report::{self, metric, RunResult};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};
use xsltdb::pipeline::Tier;
use xsltdb::xqgen::RewriteOptions;
use xsltdb_relstore::{Catalog, Datum, XmlView};
use xsltdb_serve::{FrontDoor, FrontDoorConfig, ServeError, ServeOutcome};
use xsltdb_xsltmark::{
    all_cases, case, db_catalog, db_catalog_paged, db_rows, dbonerow_stylesheet,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// `scan_paged` runs these round-robin: sequential SQL scans, index-ordered
/// SQL scans, one whole-view XQuery case and one whole-view VM case.
/// `position` is left out: its quadratic cost would dominate the run, and
/// `xsltmark_uncached` exposes it.
const SCAN_CASES: [&str; 9] = [
    "avts",
    "metric",
    "total",
    "creation",
    "depth",
    "alphabetize",
    "stringsort",
    "union",
    "functions",
];

/// Buffer-pool frames of the paged catalog (4 KiB each): the row table is
/// several times larger.
const SCAN_FRAMES: usize = 256;

/// Every this-many-th op of a `lookup_churn` client is a write. A fixed
/// schedule rather than a coin flip, so every run does the same share of
/// writes; the two clients are offset by half a period.
const WRITE_EVERY: usize = 50;

/// Lookups that warm the caches during `lookup_churn` set-up.
const WARM_LOOKUPS: usize = 1000;

/// Churn writers insert ids from here up. Generated ids stay below
/// `rows * 8`, so no lookup ever matches a fresh row and the lookup
/// references hold for the whole run.
const FRESH_ID_BASE: i64 = 1_000_000_000;

/// Stack for client threads: the engine recurses per template call.
const CLIENT_STACK_BYTES: usize = 64 * 1024 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    XsltmarkUncached,
    LookupChurn,
    ScanPaged,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "xsltmark_uncached" => Ok(Workload::XsltmarkUncached),
            "lookup_churn" => Ok(Workload::LookupChurn),
            "scan_paged" => Ok(Workload::ScanPaged),
            other => Err(format!("unknown workload {other}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::XsltmarkUncached => "xsltmark_uncached",
            Workload::LookupChurn => "lookup_churn",
            Workload::ScanPaged => "scan_paged",
        }
    }

    /// Rows in the generated `db` table.
    pub fn rows(self) -> usize {
        match self {
            Workload::XsltmarkUncached => 2000,
            Workload::LookupChurn => 20_000,
            Workload::ScanPaged => 50_000,
        }
    }

    /// Closed-loop clients. `lookup_churn` uses two, one per core of the
    /// machine the benchmark was sized on.
    pub fn clients(self) -> usize {
        match self {
            Workload::LookupChurn => 2,
            _ => 1,
        }
    }

    /// The stylesheet cases a request index names (empty for lookups,
    /// whose request index is a row index).
    pub fn case_names(self) -> Vec<&'static str> {
        match self {
            Workload::XsltmarkUncached => all_cases().iter().map(|c| c.name).collect(),
            Workload::ScanPaged => SCAN_CASES.to_vec(),
            Workload::LookupChurn => Vec::new(),
        }
    }

    /// The percentile `tail_ms` reads, fixed so that every run reads the
    /// same one. For the single-client workloads it is the highest ladder
    /// step with at least ten samples beyond it in a run of the benchmark's
    /// length, with about twice that margin. `lookup_churn` could afford
    /// p99.9, but its ~30 slowest reads follow the slowest reindexes, and
    /// across seeds that figure spread by more than its regression bound;
    /// p99 rests on ~300 reads that waited behind a write. A run with too
    /// few samples falls back to a lower step and says so.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::XsltmarkUncached | Workload::LookupChurn => 0.99,
            Workload::ScanPaged => 0.75,
        }
    }

    /// How many distinct requests (and references) the workload has.
    pub fn request_kinds(self) -> usize {
        match self {
            Workload::LookupChurn => self.rows(),
            _ => self.case_names().len(),
        }
    }

    /// `lookup_churn` serves with the default configuration, result cache
    /// on; the other two turn the result cache off so every request runs
    /// the tiers.
    pub fn door_config(self) -> FrontDoorConfig {
        let mut cfg = FrontDoorConfig::server_default();
        if self != Workload::LookupChurn {
            cfg.result_cache_bytes = 0;
        }
        cfg
    }
}

/// A seeded xorshift64* stream; every random choice of the benchmark is
/// drawn from one, so a seed fixes the inputs and the request order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        // splitmix64 of (seed, stream): distinct streams decorrelate.
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The served outcome of one transform request: what two executions of
/// the same request must agree on.
#[derive(Debug, PartialEq)]
pub enum Served {
    Ok {
        bytes: Vec<u8>,
        tier: Tier,
        attempts: u32,
    },
    Shed,
    Failed {
        attempts: u32,
    },
}

impl From<Result<ServeOutcome, ServeError>> for Served {
    fn from(r: Result<ServeOutcome, ServeError>) -> Served {
        match r {
            Ok(o) => Served::Ok {
                bytes: o.bytes,
                tier: o.tier,
                attempts: o.attempts,
            },
            Err(ServeError::Rejected(_)) => Served::Shed,
            Err(ServeError::Pipeline { attempts, .. }) => Served::Failed { attempts },
        }
    }
}

/// Everything a run needs: the catalog behind the benchmark's own lock,
/// the door, the request texts and their references.
pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    pub catalog: RwLock<Catalog>,
    pub view: XmlView,
    pub door: FrontDoor,
    /// Request index → stylesheet text.
    pub sheets: Vec<String>,
    /// Request index → reference digest.
    pub refs: Vec<Option<Digest>>,
    pub opts: RewriteOptions,
    /// Cumulative Zipf(1) weights over row ranks (`lookup_churn` only).
    zipf: Vec<f64>,
    fresh_ids: AtomicI64,
}

/// Generate the inputs, then time catalog load, index build, door
/// construction and the warm-up pass.
pub fn setup(workload: Workload, seed: u64, refs: Vec<Option<Digest>>) -> (Fixture, Duration) {
    let rows = workload.rows();
    let (sheets, zipf) = match workload {
        Workload::LookupChurn => {
            let sheets = db_rows(rows, seed)
                .iter()
                .map(|r| dbonerow_stylesheet(r.id))
                .collect();
            let mut acc = 0.0;
            let zipf = (1..=rows)
                .map(|rank| {
                    acc += 1.0 / rank as f64;
                    acc
                })
                .collect();
            (sheets, zipf)
        }
        _ => (
            workload
                .case_names()
                .iter()
                .map(|n| case(n).stylesheet)
                .collect(),
            Vec::new(),
        ),
    };

    let start = Instant::now();
    let (catalog, view) = match workload {
        Workload::ScanPaged => db_catalog_paged(rows, seed, SCAN_FRAMES),
        _ => db_catalog(rows, seed),
    };
    let fixture = Fixture {
        workload,
        seed,
        catalog: RwLock::new(catalog),
        view,
        door: FrontDoor::new(workload.door_config()),
        sheets,
        refs,
        opts: RewriteOptions::default(),
        zipf,
        fresh_ids: AtomicI64::new(FRESH_ID_BASE),
    };
    for i in fixture.warm_requests() {
        // Warm-up outcomes are not scored; the measured phase checks
        // every response.
        let cat = fixture.read();
        let _ = fixture
            .door
            .transform(&cat, &fixture.view, &fixture.sheets[i], &fixture.opts);
    }
    let took = start.elapsed();
    (fixture, took)
}

/// One client operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Serve the request with this index.
    Transform(usize),
    /// Insert a fresh row and reindex, under the write lock.
    Write,
}

/// A client's op stream. Suite workloads go in whole passes (seeded
/// shuffle for `xsltmark_uncached`, round-robin for `scan_paged`);
/// `lookup_churn` draws Zipf lookups with a write every fiftieth op.
pub struct Ops<'a> {
    fx: &'a Fixture,
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
    /// Ops issued so far, plus the client's write-schedule offset.
    issued: usize,
}

impl Ops<'_> {
    pub fn next_op(&mut self) -> Op {
        if self.fx.workload == Workload::LookupChurn {
            self.issued += 1;
            if self.issued.is_multiple_of(WRITE_EVERY) {
                return Op::Write;
            }
            return Op::Transform(self.fx.zipf_rank(&mut self.rng));
        }
        if self.pos == self.order.len() {
            if self.fx.workload == Workload::XsltmarkUncached {
                for i in (1..self.order.len()).rev() {
                    let j = self.rng.below(i + 1);
                    self.order.swap(i, j);
                }
            }
            self.pos = 0;
        }
        self.pos += 1;
        Op::Transform(self.order[self.pos - 1])
    }

    /// A time-bounded run stops only here, so every case of a pass
    /// workload runs equally often.
    pub fn at_pass_boundary(&self) -> bool {
        self.pos == self.order.len()
    }
}

impl Fixture {
    pub fn read(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog
            .read()
            .expect("catalog lock poisoned by a panicking client")
    }

    pub fn ops(&self, client: usize) -> Ops<'_> {
        let order: Vec<usize> = match self.workload {
            Workload::LookupChurn => Vec::new(),
            _ => (0..self.sheets.len()).collect(),
        };
        let pos = order.len();
        let issued = client * WRITE_EVERY / 2;
        Ops {
            fx: self,
            rng: Rng::new(self.seed, 1 + client as u64),
            order,
            pos,
            issued,
        }
    }

    /// The requests of the warm-up pass: every case once, or a burst of
    /// Zipf lookups.
    pub fn warm_requests(&self) -> Vec<usize> {
        match self.workload {
            Workload::LookupChurn => {
                let mut rng = Rng::new(self.seed, 0);
                (0..WARM_LOOKUPS)
                    .map(|_| self.zipf_rank(&mut rng))
                    .collect()
            }
            _ => (0..self.sheets.len()).collect(),
        }
    }

    /// A row index drawn Zipf(1) over ranks; rank r is row r.
    fn zipf_rank(&self, rng: &mut Rng) -> usize {
        let total = self.zipf.last().copied().unwrap_or(0.0);
        let u = rng.unit() * total;
        self.zipf
            .partition_point(|&c| c <= u)
            .min(self.zipf.len() - 1)
    }

    /// A row whose id lies outside every lookup's target.
    pub fn fresh_row(&self) -> Vec<Datum> {
        let id = self.fresh_ids.fetch_add(1, Ordering::Relaxed);
        vec![
            Datum::Int(id),
            Datum::Text("Churn".into()),
            Datum::Text("Writer".into()),
            Datum::Text(format!("{id} Churn St.")),
            Datum::Text("Dover".into()),
            Datum::Text("NY".into()),
            Datum::Int(10_001),
        ]
    }

    fn write(&self) {
        let mut cat = self
            .catalog
            .write()
            .expect("catalog lock poisoned by a panicking client");
        let row = self.fresh_row();
        cat.table_mut("db_rows")
            .and_then(|t| t.insert(row))
            .expect("db_rows accepts the row");
        cat.reindex("db_rows").expect("db_rows reindexes");
    }
}

/// What one client saw.
#[derive(Default)]
pub struct Tally {
    /// Latency of every transform request, in ms.
    pub reads_ms: Vec<f64>,
    /// Latency of every write, lock wait included, in ms.
    pub writes_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    pub served: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

impl Tally {
    /// Score one transform response against its reference.
    pub fn record(&mut self, fx: &Fixture, index: usize, ms: f64, served: &Served) {
        self.attempted += 1;
        self.reads_ms.push(ms);
        match served {
            Served::Ok { bytes, .. } => {
                self.served += 1;
                if let Some(want) = fx.refs[index] {
                    let got = digest(bytes);
                    if got != want {
                        self.mismatch(format!(
                            "request {index}: got {} bytes (fnv {:#x}), reference {} bytes (fnv {:#x})",
                            got.0, got.1, want.0, want.1
                        ));
                    }
                }
            }
            Served::Shed => self.shed += 1,
            Served::Failed { .. } => self.failed += 1,
        }
    }

    pub fn record_write(&mut self, ms: f64) {
        self.attempted += 1;
        self.writes_ms.push(ms);
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }

    pub fn merge(tallies: impl IntoIterator<Item = Tally>) -> Tally {
        let mut all = Tally::default();
        for t in tallies {
            all.reads_ms.extend(t.reads_ms);
            all.writes_ms.extend(t.writes_ms);
            all.attempted += t.attempted;
            all.failed += t.failed;
            all.shed += t.shed;
            all.served += t.served;
            all.mismatches += t.mismatches;
            if all.first_mismatch.is_none() {
                all.first_mismatch = t.first_mismatch;
            }
        }
        all
    }

    /// `(failed + shed) / attempted`, over all ops.
    pub fn error_rate(&self) -> f64 {
        (self.failed + self.shed) as f64 / self.attempted.max(1) as f64
    }

    pub fn print_mismatch(&self) {
        if let Some(m) = &self.first_mismatch {
            eprintln!(
                "perfbench: {} response(s) differ from the reference; first: {m}",
                self.mismatches
            );
        }
    }
}

/// Run every client of `fx` closed-loop until `seconds` have passed (and,
/// for pass workloads, the current pass is complete). `step` issues one op
/// against the client's state. Returns the client states and the wall time.
pub fn drive<S: Send>(
    fx: &Fixture,
    seconds: Duration,
    init: impl Fn() -> S + Sync,
    step: impl Fn(&mut S, Op) + Sync,
) -> (Vec<S>, Duration) {
    let start = Instant::now();
    let deadline = start + seconds;
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..fx.workload.clients())
            .map(|client| {
                let (init, step) = (&init, &step);
                std::thread::Builder::new()
                    .stack_size(CLIENT_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        let mut ops = fx.ops(client);
                        let mut state = init();
                        while !(ops.at_pass_boundary() && Instant::now() >= deadline) {
                            step(&mut state, ops.next_op());
                        }
                        state
                    })
                    .expect("spawning a client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (states, start.elapsed())
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The end-to-end run: requests go through `FrontDoor` exactly as a caller
/// sends them, and nothing else is timed.
pub fn run_untraced(fx: &Fixture, seconds: Duration, setup_s: f64) -> RunResult {
    let rss_reset = report::reset_peak_rss();
    let (tallies, wall) = drive(fx, seconds, Tally::default, |tally, op| match op {
        Op::Transform(i) => {
            let t0 = Instant::now();
            let cat = fx.read();
            let served = Served::from(fx.door.transform(&cat, &fx.view, &fx.sheets[i], &fx.opts));
            drop(cat);
            tally.record(fx, i, ms_since(t0), &served);
        }
        Op::Write => {
            let t0 = Instant::now();
            fx.write();
            tally.record_write(ms_since(t0));
        }
    });
    let peak_rss = report::peak_rss_mb().unwrap_or(0.0);
    let mut t = Tally::merge(tallies);
    t.print_mismatch();

    t.reads_ms.sort_by(f64::total_cmp);
    let (tail_pct, tail_ms) = report::tail(&t.reads_ms, fx.workload.tail_percentile());
    println!(
        "# {} seed={} requests={} writes={} served={} failed={} shed={} wall_s={:.3} tail_ms=p{} peak_rss_reset={}",
        fx.workload.name(),
        fx.seed,
        t.reads_ms.len(),
        t.writes_ms.len(),
        t.served,
        t.failed,
        t.shed,
        wall.as_secs_f64(),
        tail_pct,
        rss_reset,
    );
    RunResult {
        correct: t.mismatches == 0,
        attempted: t.attempted,
        failed: t.failed + t.shed,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("p50_ms", report::quantile(&t.reads_ms, 0.5), "ms"),
            metric("tail_ms", tail_ms, "ms"),
            metric(
                "throughput_rps",
                t.served as f64 / wall.as_secs_f64(),
                "1/s",
            ),
            metric("ok_rate", 1.0 - t.error_rate(), "ratio"),
            metric("peak_rss_mb", peak_rss, "MiB"),
        ],
    }
}
