//! Content-addressed result cache.
//!
//! A solved problem is memoized under a canonical 128-bit fingerprint of
//! everything that determines the answer: the DFG (name, node kinds,
//! edges), the catalog (every offering's area and cost), the constraint
//! set (mode, λ_det, λ_rec, A̅, closely-related pairs), the engine that
//! solved it and its budget. Two layers back the fingerprint: a
//! process-local map and an optional on-disk directory of one JSON file
//! per entry, so a re-run of an unchanged experiment grid (all Table 3/4
//! rows) costs file reads instead of solver hours.
//!
//! Cached designs are **re-validated on load** against the problem they
//! claim to solve — a corrupted or stale file silently degrades to a
//! cache miss, never to a wrong answer.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use troy_dfg::json::{escape, Json};
use troy_dfg::Fnv1a;
use troyhls::{
    Assignment, Implementation, Mode, Role, SolveOptions, Synthesis, SynthesisProblem, VendorId,
};

use crate::backend::{Backend, PortfolioResult};

/// 128-bit content fingerprint, rendered as 32 hex digits (also the
/// on-disk file stem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64, u64);

impl CacheKey {
    /// The two independent 64-bit fingerprint streams, in render order
    /// (`halves().0` is the first 16 hex digits of [`fmt::Display`]).
    ///
    /// Consumers that place content-addressed requests — the cluster
    /// router's consistent-hash ring — need the raw words, not the hex
    /// rendering; exposing them keeps router-side placement and
    /// worker-side cache addressing derived from the same fingerprint.
    #[must_use]
    pub fn halves(self) -> (u64, u64) {
        (self.0, self.1)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Two independent FNV-1a streams over the same bytes; 64-bit FNV alone
/// is too collision-prone to address results by content.
struct Fingerprint {
    a: Fnv1a,
    b: Fnv1a,
}

impl Fingerprint {
    fn new() -> Self {
        // The second stream starts advanced over a domain-separation tag.
        let mut b = Fnv1a::new();
        b.write(b"troy-portfolio-cache-v1");
        Fingerprint { a: Fnv1a::new(), b }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.a.write(bytes);
        self.b.write(bytes);
        // Length-prefix free framing: a field separator byte prevents
        // adjacent variable-length fields from aliasing.
        self.write_raw(0xfe);
    }

    fn write_raw(&mut self, byte: u8) {
        self.a.write(&[byte]);
        self.b.write(&[byte]);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(self) -> CacheKey {
        CacheKey(self.a.finish(), self.b.finish())
    }
}

/// Canonical fingerprint of `(problem, engine, budget)`.
///
/// `engine` names what will solve the problem (a [`Backend::name`], or
/// `"serve"` for the daemon's supervised answers); the budget is part of the key because timed-out
/// best-effort answers legitimately differ across budgets.
#[must_use]
pub fn cache_key(problem: &SynthesisProblem, engine: &str, options: &SolveOptions) -> CacheKey {
    let mut f = Fingerprint::new();
    f.write(engine.as_bytes());
    f.write_u64(options.time_limit.as_millis() as u64);
    f.write_u64(options.node_limit as u64);

    let dfg = problem.dfg();
    f.write(dfg.name().as_bytes());
    f.write_u64(dfg.len() as u64);
    for n in dfg.node_ids() {
        f.write_raw(dfg.kind(n) as u8);
    }
    for (from, to) in dfg.edges() {
        f.write_u64(from.index() as u64);
        f.write_u64(to.index() as u64);
    }

    let catalog = problem.catalog();
    f.write_u64(catalog.num_vendors() as u64);
    for vendor in catalog.vendors() {
        for ip_type in troy_dfg::IpTypeId::all() {
            if let Some(o) = catalog.offering(vendor, ip_type) {
                f.write_u64(vendor.index() as u64);
                f.write_u64(ip_type.index() as u64);
                f.write_u64(o.area);
                f.write_u64(o.cost);
            }
        }
    }

    f.write_raw(match problem.mode() {
        Mode::DetectionOnly => 1,
        Mode::DetectionRecovery => 2,
    });
    f.write_u64(problem.detection_latency() as u64);
    f.write_u64(problem.recovery_latency() as u64);
    f.write_u64(problem.area_limit());
    for &(a, b) in problem.related_pairs() {
        f.write_u64(a.index() as u64);
        f.write_u64(b.index() as u64);
    }
    f.finish()
}

/// The serializable payload of one cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedEntry {
    /// License cost of the cached design.
    pub cost: u64,
    /// Whether the cost was proven optimal.
    pub proven_optimal: bool,
    /// Whether the run was best-effort (the paper's `*`).
    pub timed_out: bool,
    /// [`Backend::name`] of the winning back end.
    pub winner: String,
    /// Number of operations the implementation covers.
    pub num_ops: usize,
    /// Flat assignments: `(op, role index, cycle, vendor)`.
    pub assignments: Vec<(usize, usize, usize, usize)>,
}

impl CachedEntry {
    /// Snapshot of a solved result.
    #[must_use]
    pub fn from_result(r: &PortfolioResult) -> Self {
        CachedEntry {
            cost: r.synthesis.cost,
            proven_optimal: r.synthesis.proven_optimal,
            timed_out: r.timed_out,
            winner: r.winner.name().to_owned(),
            num_ops: r.synthesis.implementation.num_ops(),
            assignments: r
                .synthesis
                .implementation
                .iter()
                .map(|(copy, a)| {
                    (
                        copy.op.index(),
                        copy.role.index(),
                        a.cycle,
                        a.vendor.index(),
                    )
                })
                .collect(),
        }
    }

    /// Rehydrates and **re-validates** the entry against `problem`.
    /// Returns `None` when the entry does not describe a valid design of
    /// the right cost for this problem (treated as a cache miss).
    #[must_use]
    pub fn to_result(&self, problem: &SynthesisProblem) -> Option<PortfolioResult> {
        let winner = Backend::parse(&self.winner)?;
        if self.num_ops != problem.dfg().len() {
            return None;
        }
        let mut imp = Implementation::new(self.num_ops);
        for &(op, role, cycle, vendor) in &self.assignments {
            if op >= self.num_ops || vendor >= problem.catalog().num_vendors() {
                return None;
            }
            let role = match role {
                0 => Role::Nc,
                1 => Role::Rc,
                2 => Role::Recovery,
                _ => return None,
            };
            imp.assign(
                troy_dfg::NodeId::new(op),
                role,
                Assignment {
                    cycle,
                    vendor: VendorId::new(vendor),
                },
            );
        }
        if !troyhls::validate(problem, &imp).is_empty() || imp.license_cost(problem) != self.cost {
            return None;
        }
        Some(PortfolioResult {
            synthesis: Synthesis {
                implementation: imp,
                cost: self.cost,
                proven_optimal: self.proven_optimal,
            },
            winner,
            timed_out: self.timed_out,
            from_cache: true,
            elapsed: Duration::ZERO,
        })
    }

    /// Serializes the entry as one line of JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"cost\":{},\"proven_optimal\":{},\"timed_out\":{},\"winner\":{},\"num_ops\":{},\"assignments\":[",
            self.cost,
            self.proven_optimal,
            self.timed_out,
            escape(&self.winner),
            self.num_ops
        );
        for (i, (op, role, cycle, vendor)) in self.assignments.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(s, "{comma}[{op},{role},{cycle},{vendor}]");
        }
        s.push_str("]}");
        s
    }

    /// Reads parsed [`CachedEntry::to_json`] output (tolerant of key
    /// order). `None` on any missing or ill-typed field.
    #[must_use]
    pub fn from_json(value: &Json) -> Option<Self> {
        let Json::Arr(rows) = value.get("assignments")? else {
            return None;
        };
        let assignments = rows
            .iter()
            .map(|row| match row {
                Json::Arr(quad) if quad.len() == 4 => Some((
                    quad[0].as_u64()? as usize,
                    quad[1].as_u64()? as usize,
                    quad[2].as_u64()? as usize,
                    quad[3].as_u64()? as usize,
                )),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(CachedEntry {
            cost: value.get("cost")?.as_u64()?,
            proven_optimal: value.get("proven_optimal")?.as_bool()?,
            timed_out: value.get("timed_out")?.as_bool()?,
            winner: value.get("winner")?.as_str()?.to_owned(),
            num_ops: value.get("num_ops")?.as_u64()? as usize,
            assignments,
        })
    }
}

/// Most entries the memory layer of a [`ResultCache`] holds.
const MEMORY_CAPACITY: usize = 4096;

type Generation = HashMap<CacheKey, CachedEntry>;

/// The memory layer: two generations of at most `MEMORY_CAPACITY / 2`
/// entries each. New and re-used entries go into `young`; when `young`
/// fills it becomes `old`, and the previous `old` generation is retired.
/// So an entry survives as long as it is used at least once per
/// `MEMORY_CAPACITY / 2` insertions. A key is in at most one generation.
#[derive(Debug, Default)]
struct Generations {
    young: Generation,
    old: Generation,
}

impl Generations {
    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Inserts into `young`. Returns the retired generation when `young`
    /// filled up, for the caller to drop after releasing the lock.
    #[must_use]
    fn insert(&mut self, key: CacheKey, entry: CachedEntry) -> Option<Generation> {
        self.old.remove(&key);
        self.young.insert(key, entry);
        (self.young.len() >= MEMORY_CAPACITY / 2)
            .then(|| std::mem::replace(&mut self.old, std::mem::take(&mut self.young)))
    }
}

/// Two-layer (memory + optional disk) result cache, shareable across the
/// batch pool's worker threads.
///
/// Disk writes are **atomic**: each entry is written to a temporary file
/// in the cache directory, fsynced, then renamed over the final name (and
/// the directory fsynced), so a process killed mid-store can never leave
/// a torn entry under a live key. Disk entries that fail parsing or
/// re-validation on load are **quarantined** — renamed to
/// `<fingerprint>.json.corrupt` — instead of being silently re-read on
/// every lookup; [`ResultCache::quarantined`] counts them.
///
/// The memory layer holds at most `MEMORY_CAPACITY` (4096) entries, so a
/// long-lived daemon fed a stream of fresh keys stays bounded. The disk
/// layer is not bounded.
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<Generations>,
    dir: Option<PathBuf>,
    quarantined: std::sync::atomic::AtomicUsize,
}

impl ResultCache {
    /// A process-local cache with no disk layer.
    #[must_use]
    pub fn in_memory() -> Self {
        ResultCache {
            memory: Mutex::new(Generations::default()),
            dir: None,
            quarantined: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// A cache persisted under `dir` (one `<fingerprint>.json` per entry),
    /// created if missing.
    ///
    /// # Errors
    ///
    /// Propagates the error when `dir` cannot be created.
    pub fn on_disk(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            memory: Mutex::new(Generations::default()),
            dir: Some(dir),
            quarantined: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// Number of disk entries this handle quarantined (renamed to
    /// `.corrupt`) after they failed parsing or re-validation.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The disk directory, when this cache has one.
    #[must_use]
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    /// Number of entries in the memory layer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memory.lock().expect("cache lock").len()
    }

    /// `true` when the memory layer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, re-validating against `problem`. Hits in the old
    /// generation and on disk are promoted into the young generation of
    /// the memory layer; invalid entries are misses, and a disk file that
    /// fails parsing or re-validation is quarantined (see the type docs)
    /// so it is never re-read.
    #[must_use]
    pub fn lookup(&self, key: &CacheKey, problem: &SynthesisProblem) -> Option<PortfolioResult> {
        let mut memory = self.memory.lock().expect("cache lock");
        if let Some(entry) = memory.young.get(key) {
            return entry.to_result(problem);
        }
        if let Some(entry) = memory.old.remove(key) {
            let result = entry.to_result(problem);
            let retired = memory.insert(*key, entry);
            drop(memory);
            drop(retired);
            return result;
        }
        drop(memory);
        let dir = self.dir.as_ref()?;
        let path = dir.join(format!("{key}.json"));
        let text = std::fs::read_to_string(&path).ok()?;
        let validated = Json::parse(&text)
            .as_ref()
            .and_then(CachedEntry::from_json)
            .and_then(|e| {
                let r = e.to_result(problem)?;
                Some((e, r))
            });
        let Some((entry, result)) = validated else {
            // Move the bad file aside (best effort): subsequent lookups
            // miss cleanly, and the evidence survives for inspection.
            let _ = std::fs::rename(&path, dir.join(format!("{key}.json.corrupt")));
            self.quarantined
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return None;
        };
        let retired = self.memory.lock().expect("cache lock").insert(*key, entry);
        drop(retired);
        Some(result)
    }

    /// Stores `result` under `key` in both layers. Disk write failures
    /// are swallowed — the cache is an accelerator, not a database — but
    /// the write itself is atomic (temp file + rename + directory sync),
    /// so readers and survivors of a crash see either no entry or a
    /// complete one, never a torn prefix.
    pub fn store(&self, key: &CacheKey, result: &PortfolioResult) {
        let entry = CachedEntry::from_result(result);
        if let Some(dir) = &self.dir {
            let _ = write_atomic(dir, &format!("{key}.json"), entry.to_json().as_bytes());
        }
        let retired = self.memory.lock().expect("cache lock").insert(*key, entry);
        drop(retired);
    }
}

/// Writes `bytes` to `dir/name` atomically: a unique temp file in the
/// same directory is written and fsynced, renamed over the final name,
/// and the directory itself fsynced so the rename is durable. A crash at
/// any point leaves either the old content or the new — never a torn
/// file under the final name.
fn write_atomic(dir: &std::path::Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;

    // The temp name is unique per (process, thread) so concurrent stores
    // of the same key cannot clobber each other's scratch file; the final
    // rename is last-writer-wins either way.
    let tmp = dir.join(format!(
        "{name}.tmp.{}.{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, dir.join(name))?;
        // Directory sync makes the rename itself durable; not all
        // platforms support opening directories, so failure to sync is
        // not failure to store.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_dfg::benchmarks;
    use troyhls::{Catalog, ExactSolver, Synthesizer};

    fn fig5() -> SynthesisProblem {
        SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionRecovery)
            .detection_latency(4)
            .recovery_latency(3)
            .area_limit(22_000)
            .build()
            .expect("figure 5 instance is well-formed")
    }

    fn solved(problem: &SynthesisProblem) -> PortfolioResult {
        let s = ExactSolver::new()
            .synthesize(problem, &SolveOptions::quick())
            .expect("figure 5 is feasible");
        PortfolioResult::fresh(Backend::Exact, s, Duration::ZERO)
    }

    #[test]
    fn memory_layer_is_bounded_and_keeps_recently_used_keys() {
        let p = fig5();
        let result = solved(&p);
        let cache = ResultCache::in_memory();
        let (kept, dropped) = (CacheKey(u64::MAX, 0), CacheKey(u64::MAX, 1));
        cache.store(&kept, &result);
        cache.store(&dropped, &result);
        for i in 0..(3 * MEMORY_CAPACITY) as u64 {
            cache.store(&CacheKey(i, 0), &result);
            assert!(cache.len() <= MEMORY_CAPACITY);
            if i % 1000 == 0 {
                assert!(cache.lookup(&kept, &p).is_some(), "recently used");
            }
        }
        assert!(cache.lookup(&kept, &p).is_some(), "recently used");
        assert!(cache.lookup(&dropped, &p).is_none(), "never used again");
        assert!(cache.lookup(&CacheKey(0, 0), &p).is_none(), "oldest store");
        let last = CacheKey(3 * MEMORY_CAPACITY as u64 - 1, 0);
        assert!(cache.lookup(&last, &p).is_some(), "latest store");
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let p = fig5();
        let opts = SolveOptions::quick();
        let k1 = cache_key(&p, "portfolio", &opts);
        let k2 = cache_key(&p, "portfolio", &opts);
        assert_eq!(k1, k2, "same content, same key");
        assert_ne!(
            k1,
            cache_key(&p, "exact", &opts),
            "engine tag is part of the key"
        );

        let tighter = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionRecovery)
            .detection_latency(4)
            .recovery_latency(3)
            .area_limit(21_999)
            .build()
            .expect("still well-formed");
        assert_ne!(
            k1,
            cache_key(&tighter, "portfolio", &opts),
            "area bound is part of the key"
        );
        assert_eq!(k1.to_string().len(), 32);
        let (a, b) = k1.halves();
        assert_eq!(
            format!("{a:016x}{b:016x}"),
            k1.to_string(),
            "halves expose the rendered fingerprint words in order"
        );
    }

    #[test]
    fn entry_round_trips_through_json() {
        let p = fig5();
        let entry = CachedEntry::from_result(&solved(&p));
        let back = Json::parse(&entry.to_json())
            .as_ref()
            .and_then(CachedEntry::from_json)
            .expect("own output parses");
        assert_eq!(entry, back);
        assert_eq!(
            entry.to_json(),
            "{\"cost\":4160,\"proven_optimal\":true,\"timed_out\":false,\"winner\":\"exact\",\
             \"num_ops\":5,\"assignments\":[[0,0,2,1],[0,1,1,2],[0,2,5,0],[1,0,2,0],[1,1,1,1],\
             [1,2,5,2],[2,0,1,0],[2,1,3,1],[2,2,6,2],[3,0,3,2],[3,1,3,0],[3,2,6,3],[4,0,4,3],\
             [4,1,4,2],[4,2,7,0]]}"
        );
    }

    #[test]
    fn rehydrated_entry_is_revalidated() {
        let p = fig5();
        let result = solved(&p);
        let entry = CachedEntry::from_result(&result);
        let again = entry.to_result(&p).expect("valid entry rehydrates");
        assert_eq!(again.synthesis.cost, 4160);
        assert!(again.from_cache);

        // Corrupt the cost: validation rejects the entry.
        let mut bad = entry.clone();
        bad.cost = 1;
        assert!(bad.to_result(&p).is_none(), "cost mismatch is a miss");

        // Wrong problem shape: rejected too.
        let mut tiny = entry;
        tiny.num_ops = 1;
        assert!(tiny.to_result(&p).is_none());
    }

    #[test]
    fn garbage_json_is_a_miss_not_a_panic() {
        let depth_bomb = "[".repeat(10_000);
        for text in [
            "",
            "{",
            "[1,2",
            "{\"cost\":}",
            "nonsense",
            "{\"cost\":1}",
            &depth_bomb,
        ] {
            assert!(
                Json::parse(text)
                    .as_ref()
                    .and_then(CachedEntry::from_json)
                    .is_none(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn corrupt_disk_entry_is_quarantined_not_served() {
        let dir = std::env::temp_dir().join(format!("troy-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = fig5();
        let key = cache_key(&p, "portfolio", &SolveOptions::quick());
        let cache = ResultCache::on_disk(&dir).expect("create cache dir");

        // A torn prefix of a real entry: parses as truncated JSON (fails),
        // must quarantine rather than hit.
        let full = CachedEntry::from_result(&solved(&p)).to_json();
        let torn = &full[..full.len() / 2];
        std::fs::write(dir.join(format!("{key}.json")), torn).unwrap();
        assert!(cache.lookup(&key, &p).is_none(), "torn entry is a miss");
        assert_eq!(cache.quarantined(), 1);
        assert!(
            dir.join(format!("{key}.json.corrupt")).exists(),
            "bad file moved aside"
        );
        assert!(!dir.join(format!("{key}.json")).exists());

        // Well-formed JSON lying about its cost: re-validation rejects and
        // quarantines it too (second lookup is a clean cold miss).
        let mut lying = CachedEntry::from_result(&solved(&p));
        lying.cost = 1;
        std::fs::write(dir.join(format!("{key}.json")), lying.to_json()).unwrap();
        assert!(cache.lookup(&key, &p).is_none(), "lying entry is a miss");
        assert_eq!(cache.quarantined(), 2);
        assert!(
            cache.lookup(&key, &p).is_none(),
            "quarantined file stays gone"
        );
        assert_eq!(cache.quarantined(), 2, "no re-quarantine of a missing file");

        // Brackets nested far past any real entry: a miss, quarantined,
        // never a stack overflow in the reader.
        std::fs::write(dir.join(format!("{key}.json")), "[".repeat(10_000)).unwrap();
        assert!(
            cache.lookup(&key, &p).is_none(),
            "nested brackets are a miss"
        );
        assert_eq!(cache.quarantined(), 3);
        assert!(dir.join(format!("{key}.json.corrupt")).exists());
        assert!(!dir.join(format!("{key}.json")).exists());

        // A correct store after quarantine works normally.
        cache.store(&key, &solved(&p));
        assert_eq!(
            cache
                .lookup(&key, &p)
                .expect("clean store hits")
                .synthesis
                .cost,
            4160
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_leaves_no_temp_files_behind() {
        let dir = std::env::temp_dir().join(format!("troy-cache-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = fig5();
        let key = cache_key(&p, "portfolio", &SolveOptions::quick());
        let cache = ResultCache::on_disk(&dir).expect("create cache dir");
        cache.store(&key, &solved(&p));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![format!("{key}.json")], "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_round_trips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("troy-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = fig5();
        let key = cache_key(&p, "portfolio", &SolveOptions::quick());

        let cache = ResultCache::on_disk(&dir).expect("create cache dir");
        assert!(cache.lookup(&key, &p).is_none(), "cold cache misses");
        cache.store(&key, &solved(&p));
        assert_eq!(cache.len(), 1);

        // A fresh handle (empty memory layer) must hit via disk.
        let reopened = ResultCache::on_disk(&dir).expect("reopen cache dir");
        assert!(reopened.is_empty());
        let hit = reopened.lookup(&key, &p).expect("warm cache hits");
        assert!(hit.from_cache);
        assert_eq!(hit.synthesis.cost, 4160);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins the digests that name on-disk entries. A change here orphans
    /// every existing cache directory, so it must be deliberate: batch
    /// rows key under `"exact"` with the table harness budget
    /// (`troy_bench::harness_options`: 60 s, 500k nodes), and the daemon
    /// keys under `"serve"` with [`SolveOptions::default`].
    #[test]
    fn figure5_keys_match_their_golden_digests() {
        let p = fig5();
        let harness = SolveOptions {
            time_limit: Duration::from_secs(60),
            node_limit: 500_000,
            ..SolveOptions::default()
        };
        assert_eq!(
            cache_key(&p, "exact", &harness).to_string(),
            "c3715beaa7a095c9e65d04b3f9e9de91"
        );
        assert_eq!(
            cache_key(&p, "serve", &SolveOptions::default()).to_string(),
            "75eef7b4371ad87976355d83638bc541"
        );
    }
}
