//! Pod membership: the coordinator's registry of farmd instances.
//!
//! Each pod joins with a topology manifest — its wire address, switch
//! count and admission quota — and is assigned a contiguous base in the
//! federation's global switch-id space: global id `base + i` is the
//! pod's local switch `i`. The base is sticky per pod name so a pod
//! that restarts (or re-registers after a coordinator restart) keeps
//! its global ids, as long as its switch count did not change.
//!
//! Liveness is heartbeat-driven: [`Registry::sweep`] marks a pod dead
//! once its last beat is older than the liveness window. Dead pods stay
//! listed (their slice of the id space stays reserved) but fan-outs
//! skip them.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// One registered pod.
#[derive(Debug, Clone)]
pub(crate) struct Pod {
    /// Wire address of the pod's farmd control endpoint.
    pub(crate) addr: SocketAddr,
    /// Switches the pod manages (local id space `0..switches`).
    pub(crate) switches: u64,
    /// Global switch-id base assigned at first registration.
    pub(crate) base: u64,
    /// Admission headroom quota the pod advertised.
    pub(crate) quota: f64,
    /// Heartbeats observed since the last (re)registration.
    pub(crate) beats: u64,
    /// Last heartbeat (or registration) arrival.
    pub(crate) last_beat: Instant,
    /// False once [`Registry::sweep`] finds the pod past the window.
    pub(crate) live: bool,
}

/// One past the last global switch id: ids travel as `u32`.
const GLOBAL_ID_SPACE: u64 = u32::MAX as u64 + 1;

/// The pod table plus the global switch-id space allocator.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    pods: BTreeMap<String, Pod>,
    next_base: u64,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or re-registers) a pod, returning its global switch
    /// base. A known name keeps its base while its switch count is
    /// unchanged; growing or shrinking the pod re-allocates a fresh
    /// slice at the end of the space — global ids are never re-used for
    /// a differently-shaped pod.
    ///
    /// Global switch ids are `u32` on every other op, and `switches`
    /// comes straight off the wire: a slice that would end past
    /// `u32::MAX` is refused and the registry is left as it was.
    pub(crate) fn register(
        &mut self,
        name: &str,
        addr: SocketAddr,
        switches: u64,
        quota: f64,
        now: Instant,
    ) -> Result<u64, String> {
        let base = match self.pods.get(name) {
            Some(prev) if prev.switches == switches => prev.base,
            _ => {
                let base = self.next_base;
                self.next_base = base
                    .checked_add(switches)
                    .filter(|&end| end <= GLOBAL_ID_SPACE)
                    .ok_or_else(|| {
                        format!(
                            "{switches} switch(es) from base {base} would end past \
                             the global switch-id space (u32)"
                        )
                    })?;
                base
            }
        };
        self.pods.insert(
            name.to_string(),
            Pod {
                addr,
                switches,
                base,
                quota,
                beats: 0,
                last_beat: now,
                live: true,
            },
        );
        Ok(base)
    }

    /// Records one heartbeat; `false` when the pod is unknown (the
    /// coordinator restarted — the pod must re-register).
    pub(crate) fn beat(&mut self, name: &str, now: Instant) -> bool {
        match self.pods.get_mut(name) {
            Some(pod) => {
                pod.beats += 1;
                pod.last_beat = now;
                pod.live = true;
                true
            }
            None => false,
        }
    }

    /// Marks every pod whose last beat is older than `window` dead.
    /// Returns `(total, live)` pod counts for the liveness gauges.
    pub(crate) fn sweep(&mut self, window: std::time::Duration, now: Instant) -> (u64, u64) {
        let mut live = 0u64;
        for pod in self.pods.values_mut() {
            if now.duration_since(pod.last_beat) > window {
                pod.live = false;
            }
            live += pod.live as u64;
        }
        (self.pods.len() as u64, live)
    }

    pub(crate) fn get(&self, name: &str) -> Option<&Pod> {
        self.pods.get(name)
    }

    /// All pods, name-sorted (BTreeMap order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&String, &Pod)> {
        self.pods.iter()
    }

    /// Live pods only, name-sorted.
    pub(crate) fn live(&self) -> impl Iterator<Item = (&String, &Pod)> {
        self.pods.iter().filter(|(_, p)| p.live)
    }

    /// Resolves a global switch id to `(pod name, local id)`.
    pub(crate) fn locate(&self, global: u64) -> Option<(&String, u64)> {
        self.pods
            .iter()
            .find(|(_, p)| p.base <= global && global < p.base + p.switches)
            .map(|(name, p)| (name, global - p.base))
    }

    pub(crate) fn len(&self) -> usize {
        self.pods.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::new(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST), port)
    }

    #[test]
    fn bases_are_contiguous_and_sticky_across_re_registration() {
        let t0 = Instant::now();
        let mut r = Registry::new();
        assert_eq!(r.register("a", addr(1), 5, 1.0, t0), Ok(0));
        assert_eq!(r.register("b", addr(2), 3, 1.0, t0), Ok(5));
        // Same shape: the base survives a restart.
        assert_eq!(r.register("a", addr(9), 5, 0.5, t0), Ok(0));
        assert_eq!(r.get("a").unwrap().addr, addr(9));
        // Re-shaped: a fresh slice at the end, never an overlap.
        assert_eq!(r.register("a", addr(9), 6, 0.5, t0), Ok(8));
        assert_eq!(r.locate(9), Some((&"a".to_string(), 1)));
        assert_eq!(r.locate(6), Some((&"b".to_string(), 1)));
    }

    #[test]
    fn locate_maps_global_ids_into_pods() {
        let t0 = Instant::now();
        let mut r = Registry::new();
        r.register("a", addr(1), 4, 1.0, t0).unwrap();
        r.register("b", addr(2), 2, 1.0, t0).unwrap();
        assert_eq!(r.locate(0), Some((&"a".to_string(), 0)));
        assert_eq!(r.locate(3), Some((&"a".to_string(), 3)));
        assert_eq!(r.locate(4), Some((&"b".to_string(), 0)));
        assert_eq!(r.locate(5), Some((&"b".to_string(), 1)));
        assert_eq!(r.locate(6), None);
    }

    #[test]
    fn a_window_past_the_u32_id_space_is_refused_and_changes_nothing() {
        let t0 = Instant::now();
        let mut r = Registry::new();
        assert!(r.register("huge", addr(1), u64::MAX, 1.0, t0).is_err());
        assert!(r.get("huge").is_none());
        // The allocator did not move: the next pod still starts at 0,
        // and a second one can neither overflow nor overlap it.
        assert_eq!(r.register("a", addr(2), 4, 1.0, t0), Ok(0));
        assert!(r.register("b", addr(3), u64::MAX, 1.0, t0).is_err());
        assert!(r
            .register("b", addr(3), GLOBAL_ID_SPACE - 3, 1.0, t0)
            .is_err());
        assert_eq!(
            r.register("b", addr(3), GLOBAL_ID_SPACE - 4, 1.0, t0),
            Ok(4)
        );
        assert_eq!(
            r.locate(u32::MAX as u64),
            Some((&"b".to_string(), GLOBAL_ID_SPACE - 5))
        );
        // A re-shape that no longer fits leaves the old entry in place.
        assert!(r.register("a", addr(9), 5, 1.0, t0).is_err());
        assert_eq!(r.get("a").unwrap().addr, addr(2));
        assert_eq!(r.locate(3), Some((&"a".to_string(), 3)));
    }

    #[test]
    fn sweep_marks_stale_pods_dead_and_beats_revive() {
        let t0 = Instant::now();
        let mut r = Registry::new();
        r.register("a", addr(1), 4, 1.0, t0).unwrap();
        r.register("b", addr(2), 4, 1.0, t0).unwrap();
        let later = t0 + Duration::from_millis(500);
        assert!(r.beat("a", later));
        assert!(!r.beat("ghost", later));
        assert_eq!(r.sweep(Duration::from_millis(200), later), (2, 1));
        assert!(r.get("a").unwrap().live);
        assert!(!r.get("b").unwrap().live);
        assert_eq!(r.live().count(), 1);
        // A late beat revives the pod.
        assert!(r.beat("b", later));
        assert_eq!(r.sweep(Duration::from_millis(200), later), (2, 2));
        assert_eq!(r.get("b").unwrap().beats, 1);
    }
}
