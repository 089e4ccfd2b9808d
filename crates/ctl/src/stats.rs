//! The two things every paged read of the control surface shares: the
//! cursor window ([`page`]) and the `Stats` reply body ([`StatsDoc`]).
//! farmd fills a `StatsDoc` from its farm; fedd parses its pods'
//! documents back, folds them into one and renders that — one field
//! list, whichever daemon answers.

use std::collections::BTreeMap;
use std::ops::Range;

use farm_telemetry::Json;

/// Windows a `len`-item listing with a `from_index`/`limit` cursor:
/// the items inside the window, plus `(next_index, total)`. `limit == 0`
/// means "to the end", a `from_index` beyond the end selects an empty
/// last page, and `next_index` is 0 on the last page. An unpaginated
/// request (both zero) gets no cursor — its reply carries none, so it
/// stays identical to the pre-cursor protocol revision.
pub fn page(from_index: u64, limit: u64, len: usize) -> (Range<usize>, Option<(u64, u64)>) {
    if from_index == 0 && limit == 0 {
        return (0..len, None);
    }
    let total = len as u64;
    let start = from_index.min(total);
    let end = if limit == 0 {
        total
    } else {
        start.saturating_add(limit).min(total)
    };
    let next_index = if end < total { end } else { 0 };
    (start as usize..end as usize, Some((next_index, total)))
}

/// The `Stats` reply body: run summary plus the counter map (so the
/// audit counters are one query away).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsDoc {
    pub(crate) now_ns: u64,
    pub(crate) tasks: Vec<String>,
    pub(crate) seeds: u64,
    pub(crate) switches: u64,
    pub(crate) cordoned: Vec<u64>,
    pub(crate) fenced: Vec<u64>,
    pub(crate) recovery_pending: u64,
    /// What only the answering daemon knows, rendered between
    /// `recovery_pending` and `counters`: farmd's `replan` health object,
    /// fedd's `pods_*` counts. Not read back by [`StatsDoc::from_json`].
    pub own: Vec<(String, Json)>,
    pub counters: BTreeMap<String, u64>,
}

impl StatsDoc {
    /// Renders the body. The cursor pages through the counter map (it
    /// dominates the body size — one entry per distinct metric; the map
    /// is key-sorted, so pages tile deterministically); the
    /// `counters_next_index` / `counters_total` members appear only on
    /// paginated requests.
    pub fn into_json(self, from_index: u64, limit: u64) -> Json {
        let (range, cursor) = page(from_index, limit, self.counters.len());
        let mut doc = Json::obj([("now_ns", Json::from(self.now_ns))])
            .with("tasks", self.tasks)
            .with("seeds", self.seeds)
            .with("switches", self.switches)
            .with("cordoned", self.cordoned)
            .with("fenced", self.fenced)
            .with("recovery_pending", self.recovery_pending);
        for (key, value) in self.own {
            doc = doc.with(key, value);
        }
        let counters = self
            .counters
            .into_iter()
            .skip(range.start)
            .take(range.len())
            .map(|(k, v)| (k, Json::from(v)));
        doc = doc.with("counters", Json::Obj(counters.collect()));
        match cursor {
            Some((next_index, total)) => doc
                .with("counters_next_index", next_index)
                .with("counters_total", total),
            None => doc,
        }
    }

    /// Reads a body back. Lenient like any reader of a peer's document:
    /// a missing or mistyped member reads as zero / empty.
    pub fn from_json(doc: &Json) -> StatsDoc {
        let num = |field: &str| doc.get(field).and_then(Json::as_u64).unwrap_or(0);
        let items = |field: &str| doc.get(field).and_then(Json::as_arr).unwrap_or(&[]);
        let ids =
            |field: &str| -> Vec<u64> { items(field).iter().filter_map(Json::as_u64).collect() };
        StatsDoc {
            now_ns: num("now_ns"),
            tasks: items("tasks")
                .iter()
                .filter_map(|t| t.as_str().map(str::to_string))
                .collect(),
            seeds: num("seeds"),
            switches: num("switches"),
            cordoned: ids("cordoned"),
            fenced: ids("fenced"),
            recovery_pending: num("recovery_pending"),
            own: Vec::new(),
            counters: doc
                .get("counters")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect(),
        }
    }

    /// Folds one pod's document into a federated one: clocks take the
    /// maximum, counts and counters add up, task names union, and the
    /// pod's switch ids move into the global space at `switch_base`.
    pub fn fold(&mut self, pod: StatsDoc, switch_base: u64) {
        self.now_ns = self.now_ns.max(pod.now_ns);
        self.tasks.extend(pod.tasks);
        self.tasks.sort();
        self.tasks.dedup();
        self.seeds += pod.seeds;
        self.switches += pod.switches;
        self.cordoned
            .extend(pod.cordoned.iter().map(|id| id + switch_base));
        self.cordoned.sort_unstable();
        self.fenced
            .extend(pod.fenced.iter().map(|id| id + switch_base));
        self.fenced.sort_unstable();
        self.recovery_pending += pod.recovery_pending;
        for (name, n) in pod.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_windows_tile_a_listing() {
        assert_eq!(page(0, 0, 5), (0..5, None));
        assert_eq!(page(0, 2, 5), (0..2, Some((2, 5))));
        assert_eq!(page(4, 2, 5), (4..5, Some((0, 5))));
        assert_eq!(page(3, 0, 5), (3..5, Some((0, 5))));
        assert_eq!(page(9, 2, 5), (5..5, Some((0, 5))));
        assert_eq!(page(1, u64::MAX, 5), (1..5, Some((0, 5))));
        assert_eq!(page(0, 3, 0), (0..0, Some((0, 0))));
    }

    fn pod(now_ns: u64, counter: u64) -> StatsDoc {
        StatsDoc {
            now_ns,
            tasks: vec!["hh".into(), "w\"1\n\u{1}".into()],
            seeds: 3,
            switches: 4,
            cordoned: vec![1],
            fenced: vec![0, 3],
            recovery_pending: 1,
            own: vec![("replan".into(), Json::obj([("replans", 2u64.into())]))],
            counters: [("ctl.ops".to_string(), counter), ("net.bytes".into(), 7)].into(),
        }
    }

    /// The compact body, pinned: same keys, same order (`upgrade_soak`
    /// reads the leading `"now_ns":`), no whitespace.
    #[test]
    fn stats_body_is_pinned() {
        assert_eq!(
            pod(12, 9).into_json(0, 0).to_string(),
            r#"{"now_ns":12,"tasks":["hh","w\"1\n\u0001"],"seeds":3,"switches":4,"cordoned":[1],"fenced":[0,3],"recovery_pending":1,"replan":{"replans":2},"counters":{"ctl.ops":9,"net.bytes":7}}"#
        );
        assert_eq!(
            pod(12, 9).into_json(1, 1).to_string(),
            r#"{"now_ns":12,"tasks":["hh","w\"1\n\u0001"],"seeds":3,"switches":4,"cordoned":[1],"fenced":[0,3],"recovery_pending":1,"replan":{"replans":2},"counters":{"net.bytes":7},"counters_next_index":0,"counters_total":2}"#
        );
    }

    /// At the parent the federated merge went through `f64`: anything
    /// above 2⁵³ came out rounded (`now_ns` gets there after 104 days of
    /// lockstep virtual time).
    #[test]
    fn large_counters_survive_render_parse_fold_render() {
        let big = (1u64 << 53) + 1;
        let mut merged = StatsDoc::default();
        for (base, doc) in [(0, pod(big, u64::MAX - big)), (4, pod(7, big))] {
            let wire = doc.into_json(0, 0).to_string();
            merged.fold(StatsDoc::from_json(&Json::parse(&wire).unwrap()), base);
        }
        assert_eq!(
            merged.into_json(0, 0).to_string(),
            r#"{"now_ns":9007199254740993,"tasks":["hh","w\"1\n\u0001"],"seeds":6,"switches":8,"cordoned":[1,5],"fenced":[0,3,4,7],"recovery_pending":2,"counters":{"ctl.ops":18446744073709551615,"net.bytes":14}}"#
        );
    }
}
