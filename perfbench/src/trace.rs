//! The traced run: the same requests as the untraced run, each served twice
//! — once by `FrontDoor` as shipped, once by [`TracedDoor`], which calls
//! each layer's public entry point itself, in the order
//! `FrontDoor::transform_with` and `BoundPlan::execute_to_writer_routed`
//! use, with a span around every call. The two must agree on bytes, tier
//! and attempt count for every request, so the split measures the same
//! program; the difference in their wall time is the trace overhead.

use crate::oracle::digest;
use crate::report::{self, metric, Metric, RunResult};
use crate::workload::{drive, ms_since, Fixture, Op, Served, Tally, Workload};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsltdb::admission::{AdmissionQueue, CircuitBreakerSet};
use xsltdb::pipeline::{no_rewrite_transform, BoundPlan, Tier, TierRouter, TransformPlan};
use xsltdb::plancache::{PlanKey, SharedPlanCache};
use xsltdb::resultcache::{CachedResult, ResultKey, SharedResultCache};
use xsltdb::xqgen::{rewrite, RewriteOptions};
use xsltdb::{rewrite_to_sql, Guard, Limits, PipelineError, TierFailure};
use xsltdb_relstore::{slot_name, Catalog, ExecStats, XmlView};
use xsltdb_serve::FrontDoorConfig;
use xsltdb_structinfo::{canonicalize_view, ViewCanon};
use xsltdb_xml::{to_string, StreamWriter};
use xsltdb_xquery::{analyze_query, evaluate_query_to_sink, NodeHandle};
use xsltdb_xslt::{compile_str, transform_with, NoTrace, Stylesheet, TransformOptions};
use xsltdb_xsltmark::all_cases;

/// One timed interval. Spans of one request share `req`; `parent` indexes
/// the same client's span list.
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
struct Counters {
    requests: u64,
    writes: u64,
    shed: u64,
    retries: u64,
    fallbacks: u64,
    plan_builds: u64,
    executions: u64,
    rows_scanned: u64,
    index_probes: u64,
    index_rows: u64,
    materialized_nodes: u64,
    spilled_subtrees: u64,
    output_bytes: u64,
    page_reads: u64,
    pool_hits: u64,
    pool_evictions: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.requests += o.requests;
        self.writes += o.writes;
        self.shed += o.shed;
        self.retries += o.retries;
        self.fallbacks += o.fallbacks;
        self.plan_builds += o.plan_builds;
        self.executions += o.executions;
        self.rows_scanned += o.rows_scanned;
        self.index_probes += o.index_probes;
        self.index_rows += o.index_rows;
        self.materialized_nodes += o.materialized_nodes;
        self.spilled_subtrees += o.spilled_subtrees;
        self.output_bytes += o.output_bytes;
        self.page_reads += o.page_reads;
        self.pool_hits += o.pool_hits;
        self.pool_evictions += o.pool_evictions;
    }
}

/// One client's spans, kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    req: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    n: Counters,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            req: 0,
            spans: Vec::new(),
            open: Vec::new(),
            n: Counters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("close matches an open span");
        self.spans[i].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Open the root span of request `req`.
    fn begin(&mut self, root: &'static str, req: u64) {
        self.req = req;
        self.open(root);
    }

    /// Close spans a contained panic left open.
    fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }
}

/// `FrontDoor`'s request path rebuilt from the layers' public entry points,
/// with a span around each. Owns the same kinds of state as a `FrontDoor`
/// built from the same config, so both see the same cache and breaker
/// histories when fed the same requests.
pub struct TracedDoor {
    config: FrontDoorConfig,
    queue: AdmissionQueue,
    breakers: CircuitBreakerSet,
    plans: SharedPlanCache,
    results: SharedResultCache,
    seq: AtomicU64,
}

impl TracedDoor {
    pub fn new(config: FrontDoorConfig) -> TracedDoor {
        TracedDoor {
            config,
            queue: AdmissionQueue::with_limits(config.ledger, config.admission),
            breakers: CircuitBreakerSet::new(config.breaker),
            plans: SharedPlanCache::default(),
            results: SharedResultCache::new(config.result_cache_bytes),
            seq: AtomicU64::new(0),
        }
    }

    /// `FrontDoor::transform_with` with a plain guard per attempt.
    fn transform(
        &self,
        catalog: &Catalog,
        view: &XmlView,
        src: &str,
        opts: &RewriteOptions,
        t: &mut Tracer,
    ) -> Served {
        let limits = self.config.limits;
        let deadline = self.config.admission.default_deadline;
        let (key, hit) = t.span("resultcache.probe", |_| {
            let canon = self.plans.view_canon(view, catalog.view_stamp(&view.name));
            let key = ResultKey::new(
                canon.fingerprint,
                src,
                opts,
                result_key_tables(&canon, view),
            );
            let hit = if self.results.enabled() {
                self.results.lookup(&key, catalog)
            } else {
                None
            };
            (key, hit)
        });
        if let Some(hit) = hit {
            return self.serve_cached(hit, limits, deadline, t);
        }

        let (fuel, bytes) = reservation_units(limits);
        let permit = match t.span("admission.wait", |_| {
            self.queue.admit_within(fuel, bytes, deadline)
        }) {
            Ok(p) => p,
            Err(_) => {
                t.n.shed += 1;
                return Served::Shed;
            }
        };
        let seed = self.seq.fetch_add(1, Ordering::Relaxed);
        let stats = ExecStats::new();
        let mut attempt: u32 = 0;
        let served = loop {
            let plan = match self.plan(catalog, view, src, opts, t) {
                Ok(p) => p,
                Err(_) => {
                    break Served::Failed {
                        attempts: attempt + 1,
                    }
                }
            };
            let guard = Guard::new(limits);
            let mut buf: Vec<u8> = Vec::new();
            let result = t.span("pipeline.execute", |t| {
                self.execute(&plan, catalog, &stats, &guard, &mut buf, t)
            });
            match result {
                Ok(tier) => {
                    if self.results.enabled() {
                        t.span("resultcache.insert", |_| {
                            let reads = catalog.versions_of(key.tables.iter().map(String::as_str));
                            self.results.insert(key, Arc::from(&buf[..]), tier, reads);
                        });
                    }
                    break Served::Ok {
                        bytes: buf,
                        tier,
                        attempts: attempt + 1,
                    };
                }
                Err(error) => {
                    if self.config.retry.should_retry(attempt, &error) {
                        t.n.retries += 1;
                        attempt += 1;
                        let backoff = self.config.retry.backoff(attempt, seed);
                        if backoff > Duration::ZERO {
                            t.span("frontdoor.backoff", |_| std::thread::sleep(backoff));
                        }
                        continue;
                    }
                    break Served::Failed {
                        attempts: attempt + 1,
                    };
                }
            }
        };
        drop(permit);
        let s = stats.snapshot();
        t.n.rows_scanned += s.rows_scanned;
        t.n.index_probes += s.index_probes;
        t.n.index_rows += s.index_rows;
        served
    }

    /// `FrontDoor::serve_cached`: charge the guard, reserve the bytes,
    /// copy out.
    fn serve_cached(
        &self,
        hit: CachedResult,
        limits: Limits,
        deadline: Duration,
        t: &mut Tracer,
    ) -> Served {
        let len = hit.bytes.len() as u64;
        if Guard::new(limits).charge_output_bytes(len).is_err() {
            return Served::Failed { attempts: 1 };
        }
        match t.span("admission.wait", |_| {
            self.queue.admit_within(0, len, deadline)
        }) {
            Ok(permit) => {
                let bytes = hit.bytes.to_vec();
                drop(permit);
                Served::Ok {
                    bytes,
                    tier: hit.tier,
                    attempts: 1,
                }
            }
            Err(_) => {
                t.n.shed += 1;
                Served::Shed
            }
        }
    }

    /// `plan_cached_shared`: probe, plan on a miss, bind.
    fn plan(
        &self,
        catalog: &Catalog,
        view: &XmlView,
        src: &str,
        opts: &RewriteOptions,
        t: &mut Tracer,
    ) -> Result<BoundPlan, PipelineError> {
        let (canon, key, cached) = t.span("plancache.probe", |_| {
            let canon = self.plans.view_canon(view, catalog.view_stamp(&view.name));
            let key = PlanKey::with_fingerprint(canon.fingerprint, src, opts);
            let tables = view.referenced_tables();
            let valid_at = catalog.max_ddl_stamp(tables.iter().map(String::as_str));
            let cached = self.plans.lookup(&key, valid_at);
            (canon, key, cached)
        });
        let plan = match cached {
            Some(plan) => plan,
            None => t.span("plan.build", |t| {
                let plan = Arc::new(build_plan(view, src, opts, t)?);
                self.plans
                    .insert(key, Arc::clone(&plan), catalog.generation());
                t.n.plan_builds += 1;
                Ok::<_, PipelineError>(plan)
            })?,
        };
        t.span("pipeline.bind", |_| {
            plan.bind_with(view, catalog, canon.fingerprint, canon.bindings.clone())
        })
    }

    /// `BoundPlan::execute_to_writer_routed` over this door's breakers:
    /// walk the lattice from the planned tier down; a tier that fails
    /// after writing bytes is terminal.
    fn execute(
        &self,
        plan: &BoundPlan,
        catalog: &Catalog,
        stats: &ExecStats,
        guard: &Guard,
        buf: &mut Vec<u8>,
        t: &mut Tracer,
    ) -> Result<Tier, PipelineError> {
        let tiers: &[Tier] = match plan.tier() {
            Tier::Sql => &[Tier::Sql, Tier::XQuery, Tier::Vm],
            Tier::XQuery => &[Tier::XQuery, Tier::Vm],
            Tier::Vm => &[Tier::Vm],
        };
        let mut failures: Vec<(TierFailure, Option<PipelineError>)> = Vec::new();
        for &tier in tiers {
            if !self.breakers.allow(tier) {
                let reason = format!("{} tier skipped: circuit breaker open", tier_name(tier));
                failures.push((
                    TierFailure {
                        tier: tier_name(tier),
                        reason: "skipped: circuit breaker open".to_string(),
                        panicked: false,
                    },
                    Some(PipelineError::Internal(reason)),
                ));
                t.n.fallbacks += 1;
                continue;
            }
            let before = buf.len();
            let depth = t.open.len();
            t.n.executions += 1;
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_tier(tier, plan, catalog, stats, guard, buf, t)
            }));
            let failure = match result {
                Ok(Ok(())) => {
                    self.breakers.record(tier, true);
                    return Ok(tier);
                }
                Ok(Err(e)) => (
                    TierFailure {
                        tier: tier_name(tier),
                        reason: e.to_string(),
                        panicked: false,
                    },
                    Some(e),
                ),
                Err(payload) => {
                    t.unwind_to(depth);
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    (
                        TierFailure {
                            tier: tier_name(tier),
                            reason: message,
                            panicked: true,
                        },
                        None,
                    )
                }
            };
            if let Some(trip) = guard.trip() {
                return Err(PipelineError::Guard(trip));
            }
            self.breakers.record(tier, false);
            t.n.fallbacks += 1;
            failures.push(failure);
            if buf.len() > before {
                break;
            }
        }
        if failures.len() == 1 {
            let (failure, error) = failures.pop().expect("one failure");
            return Err(error.unwrap_or(PipelineError::Panic {
                tier: failure.tier,
                message: failure.reason,
            }));
        }
        Err(PipelineError::TiersExhausted {
            attempts: failures.into_iter().map(|f| f.0).collect(),
        })
    }
}

/// `plan_transform`: compile, canonicalise, rewrite to XQuery, rewrite to
/// SQL/XML, analyse emission — each in its own span.
fn build_plan(
    view: &XmlView,
    src: &str,
    opts: &RewriteOptions,
    t: &mut Tracer,
) -> Result<TransformPlan, PipelineError> {
    let sheet = t.span("xslt.compile", |_| compile_str(src))?;
    let canon = t.span("structinfo.canonicalize", |_| canonicalize_view(view));
    let info = match &canon.canonical {
        Some(i) => i.clone(),
        None => {
            return Ok(TransformPlan {
                tier: Tier::Vm,
                sheet,
                rewrite: None,
                sql: None,
                canonical_fp: canon.fingerprint,
                slot_count: 0,
                fallback_reason: canon.note,
                emission: None,
            })
        }
    };
    let rewritten = t.span("xqgen.rewrite", |_| rewrite(&sheet, &info, opts));
    let (tier, rewrite_out, sql, fallback_reason) = match rewritten {
        Ok(outcome) => match t.span("sqlrewrite.rewrite", |_| {
            rewrite_to_sql(&outcome.query, &info)
        }) {
            Ok(sql) => (Tier::Sql, Some(outcome), Some(sql), None),
            Err(e) => (Tier::XQuery, Some(outcome), None, Some(e.to_string())),
        },
        Err(e) => (Tier::Vm, None, None, Some(e.to_string())),
    };
    let emission = t.span("emission.analyze", |_| {
        rewrite_out.as_ref().map(|o| analyze_query(&o.query))
    });
    Ok(TransformPlan {
        tier,
        sheet,
        rewrite: rewrite_out,
        sql,
        canonical_fp: canon.fingerprint,
        slot_count: canon.slot_count,
        fallback_reason,
        emission,
    })
}

/// One tier of the streaming lattice (`run_single_tier_to_writer`).
fn run_tier(
    tier: Tier,
    plan: &BoundPlan,
    catalog: &Catalog,
    stats: &ExecStats,
    guard: &Guard,
    buf: &mut Vec<u8>,
    t: &mut Tracer,
) -> Result<(), PipelineError> {
    match tier {
        Tier::Sql => {
            let sql = plan
                .plan()
                .sql
                .as_ref()
                .ok_or_else(|| PipelineError::internal("no SQL query in plan"))?;
            t.span("relstore.sql_exec", |_| {
                sql.execute_streaming_bound(catalog, stats, guard, plan.bindings(), buf)
            })?;
            Ok(())
        }
        Tier::XQuery => {
            let outcome = plan
                .plan()
                .rewrite
                .as_ref()
                .ok_or_else(|| PipelineError::internal("no rewrite outcome in plan"))?;
            let docs = t.span("relstore.materialize", |_| {
                plan.view.materialize_guarded(catalog, stats, guard)
            })?;
            t.n.materialized_nodes += docs.iter().map(|d| d.node_count() as u64).sum::<u64>();
            t.span("xquery.eval", |t| {
                let mut sw = StreamWriter::new(&mut *buf, guard.clone());
                for d in docs {
                    let run = evaluate_query_to_sink(
                        &outcome.query,
                        Some(NodeHandle::document(d)),
                        Vec::new(),
                        guard.clone(),
                        &mut sw,
                    )?;
                    t.n.spilled_subtrees += run.spilled_subtrees;
                }
                sw.finish()
                    .map_err(|e| PipelineError::internal(format!("stream close failed: {e}")))?;
                Ok(())
            })
        }
        Tier::Vm => {
            let docs = t.span("relstore.materialize", |_| {
                plan.view.materialize_guarded(catalog, stats, guard)
            })?;
            t.n.materialized_nodes += docs.iter().map(|d| d.node_count() as u64).sum::<u64>();
            let opts = TransformOptions {
                guard: guard.clone(),
                ..Default::default()
            };
            let results = t.span("xslt.vm", |_| {
                docs.iter()
                    .map(|d| transform_with(plan.sheet(), d, &opts, &mut NoTrace))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            t.span("xmlkit.serialize", |_| {
                for d in results {
                    buf.write_all(to_string(&d).as_bytes()).map_err(|e| {
                        PipelineError::internal(format!("result write failed: {e}"))
                    })?;
                }
                Ok::<(), PipelineError>(())
            })?;
            // Freeing the materialised view is part of its cost.
            t.span("relstore.materialize", |_| drop(docs));
            Ok(())
        }
    }
}

fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Sql => "sql",
        Tier::XQuery => "xquery",
        Tier::Vm => "vm",
    }
}

/// The tables a result key names (`FrontDoor`'s `result_key_tables`).
fn result_key_tables(canon: &ViewCanon, view: &XmlView) -> Vec<String> {
    if canon.slot_count == 0 {
        return view.referenced_tables();
    }
    let mut out: Vec<String> = Vec::with_capacity(canon.slot_count);
    for i in 0..canon.slot_count {
        if let Some(table) = canon.bindings.get(&slot_name(i)) {
            if !out.iter().any(|t| t == table) {
                out.push(table.to_string());
            }
        }
    }
    out
}

/// Ledger units a request reserves (`FrontDoor`'s `reservation_units`).
fn reservation_units(limits: Limits) -> (u64, u64) {
    let fuel = if limits.fuel == u64::MAX {
        0
    } else {
        limits.fuel
    };
    let bytes = if limits.max_output_bytes == u64::MAX {
        0
    } else {
        limits.max_output_bytes
    };
    (fuel, bytes)
}

/// One traced client's state.
struct Client {
    tally: Tally,
    tracer: Tracer,
    untraced_ms: f64,
    traced_ms: f64,
    /// Per request index: FrontDoor latencies, and the VM baseline's.
    case_ms: Vec<Vec<f64>>,
    vm_ms: Vec<Vec<f64>>,
    untraced_first: bool,
}

fn describe(s: &Served) -> String {
    match s {
        Served::Ok {
            bytes,
            tier,
            attempts,
        } => {
            format!(
                "{} bytes on the {tier:?} tier after {attempts} attempt(s)",
                bytes.len()
            )
        }
        Served::Shed => "a shed".to_string(),
        Served::Failed { attempts } => format!("a failure after {attempts} attempt(s)"),
    }
}

/// Serve request `i` through the traced door, as one `request` span. The
/// returned time leaves out the catalog lock wait, as
/// [`untraced_request`]'s does: lock waits depend on where writers happen
/// to land, not on tracing.
fn traced_request(
    fx: &Fixture,
    door: &TracedDoor,
    i: usize,
    req: u64,
    t: &mut Tracer,
) -> (f64, Served) {
    t.begin("request", req);
    let cat = t.span("catalog_lock.read_wait", |_| fx.read());
    let t0 = Instant::now();
    let pool_before = cat.pool_stats();
    let served = door.transform(&cat, &fx.view, &fx.sheets[i], &fx.opts, t);
    let ms = ms_since(t0);
    if let (Some(before), Some(after)) = (pool_before, cat.pool_stats()) {
        let d = after.delta_since(&before);
        t.n.page_reads += d.page_reads;
        t.n.pool_hits += d.pool_hits;
        t.n.pool_evictions += d.evictions;
    }
    drop(cat);
    t.close();
    t.n.requests += 1;
    if let Served::Ok { bytes, .. } = &served {
        t.n.output_bytes += bytes.len() as u64;
    }
    (ms, served)
}

/// Serve request `i` through `FrontDoor`, timing only the door.
fn untraced_request(fx: &Fixture, i: usize) -> (f64, Served) {
    let cat = fx.read();
    let t0 = Instant::now();
    let served = Served::from(fx.door.transform(&cat, &fx.view, &fx.sheets[i], &fx.opts));
    let ms = ms_since(t0);
    drop(cat);
    (ms, served)
}

/// The benchmark's write, as one `write` span.
fn traced_write(fx: &Fixture, req: u64, t: &mut Tracer) -> f64 {
    let t0 = Instant::now();
    t.begin("write", req);
    let mut cat = t.span("catalog_lock.write_wait", |_| {
        fx.catalog
            .write()
            .expect("catalog lock poisoned by a panicking client")
    });
    let row = fx.fresh_row();
    t.span("relstore.insert", |_| {
        cat.table_mut("db_rows").and_then(|tb| tb.insert(row))
    })
    .expect("db_rows accepts the row");
    t.span("relstore.reindex", |_| cat.reindex("db_rows"))
        .expect("db_rows reindexes");
    drop(cat);
    t.close();
    t.n.writes += 1;
    ms_since(t0)
}

/// The paper's yardstick: the no-rewrite XSLTVM over the materialised view,
/// serialized, at the same size.
fn vm_baseline(fx: &Fixture, sheet: &Stylesheet) -> (f64, Option<(usize, u64)>) {
    let t0 = Instant::now();
    let cat = fx.read();
    let out = no_rewrite_transform(&cat, &fx.view, sheet, &ExecStats::new())
        .ok()
        .map(|run| {
            let mut s = String::new();
            for d in &run.documents {
                s.push_str(&to_string(d));
            }
            digest(s.as_bytes())
        });
    drop(cat);
    (ms_since(t0), out)
}

pub fn run_traced(fx: &Fixture, seconds: Duration) -> RunResult {
    let door = TracedDoor::new(fx.workload.door_config());
    {
        // Mirror the warm-up the fixture's door had, so both doors start
        // from the same cache state.
        let mut scratch = Tracer::new(Instant::now());
        for i in fx.warm_requests() {
            let cat = fx.read();
            let _ = door.transform(&cat, &fx.view, &fx.sheets[i], &fx.opts, &mut scratch);
        }
    }
    door.plans.reset_stats();
    door.results.reset_stats();
    let suite = fx.workload == Workload::XsltmarkUncached;
    let vm_sheets: Vec<Stylesheet> = if suite {
        fx.sheets
            .iter()
            .map(|s| compile_str(s).expect("suite stylesheets compile"))
            .collect()
    } else {
        Vec::new()
    };
    let kinds = if suite { fx.sheets.len() } else { 0 };

    let epoch = Instant::now();
    let next_req = AtomicU64::new(0);
    let (clients, _wall) = drive(
        fx,
        seconds,
        || Client {
            tally: Tally::default(),
            tracer: Tracer::new(epoch),
            untraced_ms: 0.0,
            traced_ms: 0.0,
            case_ms: vec![Vec::new(); kinds],
            vm_ms: vec![Vec::new(); kinds],
            untraced_first: true,
        },
        |c, op| {
            let req = next_req.fetch_add(1, Ordering::Relaxed);
            match op {
                Op::Transform(i) => {
                    // Alternate which path runs first, so neither always
                    // finds the other's warm CPU caches.
                    let ((u_ms, u), (t_ms, tr)) = if c.untraced_first {
                        let u = untraced_request(fx, i);
                        (u, traced_request(fx, &door, i, req, &mut c.tracer))
                    } else {
                        let tr = traced_request(fx, &door, i, req, &mut c.tracer);
                        (untraced_request(fx, i), tr)
                    };
                    c.untraced_first = !c.untraced_first;
                    c.untraced_ms += u_ms;
                    c.traced_ms += t_ms;
                    c.tally.record(fx, i, u_ms, &u);
                    if tr != u {
                        c.tally.mismatch(format!(
                            "request {i}: traced path served {}, FrontDoor served {}",
                            describe(&tr),
                            describe(&u)
                        ));
                    }
                    if suite {
                        c.case_ms[i].push(u_ms);
                        let (vm_ms, vm_out) = vm_baseline(fx, &vm_sheets[i]);
                        c.vm_ms[i].push(vm_ms);
                        if vm_out.is_some() && vm_out != fx.refs[i] {
                            c.tally.mismatch(format!(
                                "request {i}: VM baseline differs from the reference"
                            ));
                        }
                    }
                }
                Op::Write => {
                    let ms = traced_write(fx, req, &mut c.tracer);
                    c.tally.record_write(ms);
                }
            }
        },
    );

    let mut tally = Tally::default();
    let mut n = Counters::default();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut case_ms = vec![Vec::new(); kinds];
    let mut vm_ms = vec![Vec::new(); kinds];
    let mut spans: Vec<Vec<Span>> = Vec::new();
    for c in clients {
        n.add(&c.tracer.n);
        untraced_ms += c.untraced_ms;
        traced_ms += c.traced_ms;
        for (all, mine) in case_ms.iter_mut().zip(c.case_ms) {
            all.extend(mine);
        }
        for (all, mine) in vm_ms.iter_mut().zip(c.vm_ms) {
            all.extend(mine);
        }
        tally = Tally::merge([tally, c.tally]);
        spans.push(c.tracer.spans);
    }
    tally.print_mismatch();

    let split = Split::of(&spans);
    let path = format!("{}/{}.spans.tsv", crate::OUT_DIR, fx.workload.name());
    if let Err(e) = write_spans(&path, &spans) {
        eprintln!("perfbench: could not write {path}: {e}");
    }

    let metrics = layer_metrics(
        fx,
        &door,
        &n,
        &split,
        &case_ms,
        &vm_ms,
        untraced_ms,
        traced_ms,
    );
    println!(
        "# {} seed={} traced requests={} writes={} spans={} -> {path}",
        fx.workload.name(),
        fx.seed,
        n.requests,
        n.writes,
        spans.iter().map(Vec::len).sum::<usize>()
    );
    RunResult {
        correct: tally.mismatches == 0,
        attempted: tally.attempted,
        failed: tally.failed + tally.shed,
        metrics,
    }
}

/// Self time per span name, and the root spans' totals.
struct Split {
    self_ns: BTreeMap<&'static str, u64>,
    root_ns: u64,
    root_self_ns: u64,
    writes_ms: Vec<f64>,
}

impl Split {
    /// A span's self time is its duration minus what its children cover;
    /// children of one span never overlap (one client runs one call at a
    /// time), so coverage is the sum of their durations.
    fn of(clients: &[Vec<Span>]) -> Split {
        let mut split = Split {
            self_ns: BTreeMap::new(),
            root_ns: 0,
            root_self_ns: 0,
            writes_ms: Vec::new(),
        };
        for spans in clients {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
            for (s, covered) in spans.iter().zip(child_ns) {
                let dur = s.end_ns - s.start_ns;
                let own = dur.saturating_sub(covered);
                *split.self_ns.entry(s.name).or_default() += own;
                if s.parent.is_none() {
                    split.root_ns += dur;
                    split.root_self_ns += own;
                    if s.name == "write" {
                        split.writes_ms.push(dur as f64 / 1e6);
                    }
                }
            }
        }
        split
    }

    fn self_ns(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64
    }
}

fn write_spans(path: &str, clients: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\treq\tname\tstart_ns\tend_ns\tparent")?;
    let mut base = 0;
    for spans in clients {
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or(String::from("-"), |p| (base + p).to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{parent}",
                base + i,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        base += spans.len();
    }
    w.flush()
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    fx: &Fixture,
    door: &TracedDoor,
    n: &Counters,
    split: &Split,
    case_ms: &[Vec<f64>],
    vm_ms: &[Vec<f64>],
    untraced_ms: f64,
    traced_ms: f64,
) -> Vec<Metric> {
    let reqs = n.requests.max(1) as f64;
    let writes = n.writes.max(1) as f64;
    let per_req_us = |name: &str| split.self_ns(name) / reqs / 1e3;
    let per_req_ms = |name: &str| split.self_ns(name) / reqs / 1e6;
    let per_write_ms = |name: &str| split.self_ns(name) / writes / 1e6;
    let per_req = |count: u64| count as f64 / reqs;
    let results = door.results.stats();
    let plans = door.plans.stats();
    let pool = fx.read().pool_stats().unwrap_or_default();
    let pool_requests = n.page_reads + n.pool_hits;

    let mut writes_ms = split.writes_ms.clone();
    writes_ms.sort_by(f64::total_cmp);
    let (write_tail_pct, write_tail_ms) = report::tail(&writes_ms, 1.0);
    println!("# write_tail_ms=p{write_tail_pct}");

    let mut m = vec![
        metric("admission.wait_us", per_req_us("admission.wait"), "us"),
        metric("frontdoor.shed", per_req(n.shed), "count/req"),
        metric("frontdoor.retries", per_req(n.retries), "count/req"),
        metric(
            "frontdoor.backoff_ms",
            per_req_ms("frontdoor.backoff"),
            "ms",
        ),
        metric("pipeline.fallbacks", per_req(n.fallbacks), "count/req"),
        metric("resultcache.hit_rate", results.hit_rate(), "ratio"),
        metric(
            "resultcache.invalidations",
            per_req(results.invalidations),
            "count/req",
        ),
        metric(
            "resultcache.probe_us",
            per_req_us("resultcache.probe"),
            "us",
        ),
        metric(
            "resultcache.insert_us",
            per_req_us("resultcache.insert"),
            "us",
        ),
        metric("plancache.hit_rate", plans.hit_rate(), "ratio"),
        metric("plancache.evictions", per_req(plans.evictions), "count/req"),
        metric("plancache.probe_us", per_req_us("plancache.probe"), "us"),
        metric("plancache.insert_us", per_req_us("plan.build"), "us"),
        metric("plan.builds", per_req(n.plan_builds), "count/req"),
        metric("xslt.compile_us", per_req_us("xslt.compile"), "us"),
        metric(
            "structinfo.canonicalize_us",
            per_req_us("structinfo.canonicalize"),
            "us",
        ),
        metric("xqgen.rewrite_us", per_req_us("xqgen.rewrite"), "us"),
        metric(
            "sqlrewrite.rewrite_us",
            per_req_us("sqlrewrite.rewrite"),
            "us",
        ),
        metric("emission.analyze_us", per_req_us("emission.analyze"), "us"),
        metric("pipeline.bind_us", per_req_us("pipeline.bind"), "us"),
        metric("pipeline.lattice_us", per_req_us("pipeline.execute"), "us"),
        metric(
            "relstore.sql_exec_ms",
            per_req_ms("relstore.sql_exec"),
            "ms",
        ),
        metric(
            "relstore.rows_scanned",
            per_req(n.rows_scanned),
            "count/req",
        ),
        metric(
            "relstore.index_probes",
            per_req(n.index_probes),
            "count/req",
        ),
        metric(
            "relstore.rows_per_result",
            (n.rows_scanned + n.index_rows) as f64 / n.executions.max(1) as f64,
            "count",
        ),
        metric(
            "relstore.materialize_ms",
            per_req_ms("relstore.materialize"),
            "ms",
        ),
        metric(
            "relstore.materialized_nodes",
            per_req(n.materialized_nodes),
            "count/req",
        ),
        metric("pool.page_reads", per_req(n.page_reads), "count/req"),
        metric(
            "pool.hit_rate",
            if pool_requests == 0 {
                0.0
            } else {
                n.pool_hits as f64 / pool_requests as f64
            },
            "ratio",
        ),
        metric("pool.evictions", per_req(n.pool_evictions), "count/req"),
        metric(
            "pool.peak_resident_frames",
            pool.peak_resident_frames as f64,
            "frames",
        ),
        metric(
            "relstore.insert_us",
            split.self_ns("relstore.insert") / writes / 1e3,
            "us",
        ),
        metric(
            "relstore.reindex_ms",
            per_write_ms("relstore.reindex"),
            "ms",
        ),
        metric(
            "catalog_lock.read_wait_ms",
            per_req_ms("catalog_lock.read_wait"),
            "ms",
        ),
        metric(
            "catalog_lock.write_wait_ms",
            per_write_ms("catalog_lock.write_wait"),
            "ms",
        ),
        metric("write_p50_ms", report::quantile(&writes_ms, 0.5), "ms"),
        metric("write_tail_ms", write_tail_ms, "ms"),
        metric("xquery.eval_ms", per_req_ms("xquery.eval"), "ms"),
        metric(
            "xquery.spilled_subtrees",
            per_req(n.spilled_subtrees),
            "count/req",
        ),
        metric("xslt.vm_ms", per_req_ms("xslt.vm"), "ms"),
        metric("xmlkit.serialize_ms", per_req_ms("xmlkit.serialize"), "ms"),
        metric("output_bytes", per_req(n.output_bytes), "bytes/req"),
    ];

    // The paper's yardstick, suite only: per-case FrontDoor p50 against the
    // XSLTVM's at the same size. Information, not a gate.
    let (mut log_sum, mut slower, mut compared) = (0.0, 0u64, 0u64);
    for (i, name) in all_cases().iter().map(|c| c.name).enumerate() {
        let mut engine = case_ms.get(i).cloned().unwrap_or_default();
        let mut vm = vm_ms.get(i).cloned().unwrap_or_default();
        let (e, v) = (report::median(&mut engine), report::median(&mut vm));
        if e > 0.0 && v > 0.0 {
            log_sum += (e / v).ln();
            compared += 1;
            slower += u64::from(e > v);
        }
        if e > 0.0 {
            let verdict = if e > v { "slower than the VM" } else { "" };
            println!("# case {name:<12} p50_ms={e:.3} vm_p50_ms={v:.3} {verdict}");
        }
        m.push(metric(format!("case.{name}.p50_ms"), e, "ms"));
    }
    let geomean = if compared == 0 {
        0.0
    } else {
        (log_sum / compared as f64).exp()
    };
    m.push(metric("engine_vs_vm_geomean", geomean, "ratio"));
    m.push(metric("cases_slower_than_vm", slower as f64, "count"));

    m.push(metric(
        "trace.unattributed_pct",
        100.0 * split.root_self_ns as f64 / split.root_ns.max(1) as f64,
        "%",
    ));
    m.push(metric(
        "trace.overhead_pct",
        if untraced_ms > 0.0 {
            100.0 * (traced_ms - untraced_ms) / untraced_ms
        } else {
            0.0
        },
        "%",
    ));
    m
}
