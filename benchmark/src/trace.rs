//! Spans recorded by the benchmark around its own calls into a layer.
//!
//! Nothing inside the crates is instrumented: a span here is the wall
//! interval of one call the benchmark made (`Campaign::prepare_observed`,
//! a wrapped `CampaignStore::on_event`, one HTTP request, one probe) or
//! one interval the crates report through `CampaignObserver`. Spans stay
//! in memory and are written out once, when the run ends.

use fastfit_store::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.prepare`, `store.on_event`, `http.GET status`.
    pub name: String,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Campaign the call belongs to (spans of one campaign share it).
    pub campaign: String,
}

/// Collector of spans. A disabled tracer records nothing and costs a
/// branch per call, so the untraced pass runs the same code.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores (`!on`) every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: on.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Seconds from the origin to `t`.
    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Record a finished interval.
    pub fn record(
        &self,
        name: &str,
        campaign: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name: name.to_string(),
            start: self.secs(start),
            end: self.secs(end),
            parent,
            campaign: campaign.to_string(),
        });
        Some(spans.len() - 1)
    }

    /// Open a span now; children recorded before [`Tracer::close`] may
    /// name it as their parent.
    pub fn open(&self, name: &str, campaign: &str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, campaign, parent, now, now)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let (Some(spans), Some(id)) = (self.spans.as_ref(), id) {
            let end = self.secs(Instant::now());
            spans.lock().expect("tracer lock poisoned")[id].end = end;
        }
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &self,
        name: &str,
        campaign: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.open(name, campaign, parent);
        let r = f(id);
        self.close(id);
        r
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(s) => s.lock().expect("tracer lock poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start.max(spans[p].start), s.end.min(spans[p].end)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            ((s.end - s.start) - covered).max(0.0)
        })
        .collect()
}

/// Per-name rollup: `(count, total seconds, self seconds)`, by name.
pub fn rollup(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    by_name
}

/// The trace document: the per-name rollup first (what a reader wants),
/// then every span.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let rollup = rollup(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            (
                name,
                Json::obj([
                    ("count", Json::U64(count)),
                    ("total_s", Json::F64(total)),
                    ("self_s", Json::F64(own)),
                ]),
            )
        })
        .collect();
    let items = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(i, (s, own))| {
            Json::obj([
                ("id", Json::U64(i as u64)),
                ("name", Json::Str(s.name.clone())),
                ("campaign", Json::Str(s.campaign.clone())),
                (
                    "parent",
                    s.parent.map(|p| Json::U64(p as u64)).unwrap_or(Json::Null),
                ),
                ("start_s", Json::F64(s.start)),
                ("end_s", Json::F64(s.end)),
                ("self_s", Json::F64(own)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::U64(seed)),
        ("by_name", Json::Obj(rollup)),
        ("spans", Json::Arr(items)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            campaign: "c".into(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a` by one second: the union covers 1..6.
            span("b", 3.0, 6.0, Some(0)),
            // Grandchild: comes off `a`, not off `root`.
            span("a1", 1.0, 2.0, Some(1)),
            // Sticks out past the parent: clipped to 9..10.
            span("late", 9.0, 12.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 4.0).abs() < 1e-12, "root self {:?}", own);
        assert!((own[1] - 2.0).abs() < 1e-12);
        assert!((own[2] - 3.0).abs() < 1e-12);
        assert!((own[3] - 1.0).abs() < 1e-12);
        let roll = rollup(&spans);
        assert_eq!(roll["root"].0, 1);
        assert!((roll["root"].1 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn nested_children_do_not_double_count() {
        let spans = vec![
            span("root", 0.0, 5.0, None),
            span("big", 1.0, 4.0, Some(0)),
            span("inside", 2.0, 3.0, Some(0)),
        ];
        assert!((self_times(&spans)[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let got = t.span("x", "c", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span("outer", "c", None, |id| {
            t.span("inner", "c", id, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
