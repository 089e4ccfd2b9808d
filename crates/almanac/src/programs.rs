//! The 16 network monitoring and attack-detection use cases of the
//! paper's Tab. I, implemented in Almanac.
//!
//! Every program compiles through the full front-end (see this module's
//! tests) and is executable by the `farm-soil` interpreter. Line counts
//! are compared against the paper's reported numbers by the Tab. I
//! reproduction in `farm-bench`.

/// One Tab. I use case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UseCase {
    /// Display name as in Tab. I.
    pub name: &'static str,
    /// Almanac source (may contain several machines/functions).
    pub source: &'static str,
    /// The principal machine to deploy.
    pub machine: &'static str,
    /// Seed lines of code reported by the paper.
    pub paper_seed_loc: usize,
    /// Harvester lines of code reported by the paper.
    pub paper_harvester_loc: usize,
}

/// Counts non-empty, non-comment source lines (the paper's convention of
/// counting all code including abstracted functions).
pub fn loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Heavy hitter detection — the paper's List. 2 with its abstracted
/// auxiliary functions written out.
pub const HEAVY_HITTER: &str = r#"
fun getHH(list stats, long threshold): list {
  list result;
  int i = 0;
  while (i < list_len(stats)) {
    if (stat_tx_bytes(list_get(stats, i)) >= threshold) then {
      list_push(result, list_get(stats, i));
    }
    i = i + 1;
  }
  return result;
}
fun setHitterRules(list hitters, action hitterAction) {
  int i = 0;
  while (i < list_len(hitters)) {
    removeTCAMRule(port stat_port(list_get(hitters, i)));
    addTCAMRule(Rule { .pattern = port stat_port(list_get(hitters, i)), .act = hitterAction });
    i = i + 1;
  }
}
machine HH {
  place all;
  poll pollStats = Poll {
    .ival = 10/res().PCIe, .what = port ANY
  };
  external long threshold = 1000000;
  external action hitterAction = action_set_qos(1);
  list hitters;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (not is_list_empty(hitters)) then {
        transit HHdetected;
      }
    }
  }
  state HHdetected {
    util (res) { return 100; }
    when (enter) do {
      send hitters to harvester;
      setHitterRules(hitters, hitterAction);
      transit observe;
    }
  }
  when (recv long newTh from harvester)
  do { threshold = newTh; }
  when (recv action hitAct from harvester)
  do { hitterAction = hitAct; }
}
"#;

/// Hierarchical heavy hitters by inheritance: reuses HH's polling and
/// reaction machinery, overriding `observe` to also aggregate port groups
/// (one hierarchy level above individual ports).
pub(crate) const HIER_HH_INHERITED: &str = r#"
fun getHH(list stats, long threshold): list {
  list result;
  int i = 0;
  while (i < list_len(stats)) {
    if (stat_tx_bytes(list_get(stats, i)) >= threshold) then {
      list_push(result, list_get(stats, i));
    }
    i = i + 1;
  }
  return result;
}
fun setHitterRules(list hitters, action hitterAction) {
  int i = 0;
  while (i < list_len(hitters)) {
    removeTCAMRule(port stat_port(list_get(hitters, i)));
    addTCAMRule(Rule { .pattern = port stat_port(list_get(hitters, i)), .act = hitterAction });
    i = i + 1;
  }
}
fun groupVolume(list stats, int group, int groupSize): long {
  long total = 0;
  int i = 0;
  while (i < list_len(stats)) {
    if (stat_port(list_get(stats, i)) / groupSize == group) then {
      total = total + stat_tx_bytes(list_get(stats, i));
    }
    i = i + 1;
  }
  return total;
}
machine HH {
  place all;
  poll pollStats = Poll {
    .ival = 10/res().PCIe, .what = port ANY
  };
  external long threshold = 1000000;
  external action hitterAction = action_set_qos(1);
  list hitters;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (not is_list_empty(hitters)) then {
        transit HHdetected;
      }
    }
  }
  state HHdetected {
    util (res) { return 100; }
    when (enter) do {
      send hitters to harvester;
      setHitterRules(hitters, hitterAction);
      transit observe;
    }
  }
  when (recv long newTh from harvester)
  do { threshold = newTh; }
  when (recv action hitAct from harvester)
  do { hitterAction = hitAct; }
}
machine HHH extends HH {
  external long groupThreshold = 8000000;
  external int groupSize = 8;
  list groupHitters;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      list_clear(groupHitters);
      int g = 0;
      while (g * groupSize < 64) {
        if (groupVolume(stats, g, groupSize) >= groupThreshold) then {
          list_push(groupHitters, g);
        }
        g = g + 1;
      }
      if (not is_list_empty(hitters)) then {
        transit HHdetected;
      }
      if (not is_list_empty(groupHitters)) then {
        send groupHitters to harvester;
      }
    }
  }
}
"#;

/// Hierarchical heavy hitters, standalone two-level implementation.
pub const HIER_HH_STANDALONE: &str = r#"
fun levelHitters(list stats, long threshold, int groupSize): list {
  list result;
  int g = 0;
  while (g * groupSize < 64) {
    long total = 0;
    int i = 0;
    while (i < list_len(stats)) {
      if (stat_port(list_get(stats, i)) / groupSize == g) then {
        total = total + stat_tx_bytes(list_get(stats, i));
      }
      i = i + 1;
    }
    if (total >= threshold) then {
      list_push(result, pair(g, total));
    }
    g = g + 1;
  }
  return result;
}
machine HHH2 {
  place all;
  poll pollStats = Poll { .ival = 10/res().PCIe, .what = port ANY };
  external long leafThreshold = 1000000;
  external long innerThreshold = 8000000;
  external int groupSize = 8;
  list leafHitters;
  list innerHitters;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 200) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      leafHitters = levelHitters(stats, leafThreshold, 1);
      innerHitters = levelHitters(stats, innerThreshold, groupSize);
      if (not is_list_empty(innerHitters)) then {
        transit report;
      }
    }
  }
  state report {
    util (res) { return 50; }
    when (enter) do {
      send leafHitters to harvester;
      send innerHitters to harvester;
      transit observe;
    }
  }
  when (recv long newLeaf from harvester) do { leafThreshold = newLeaf; }
}
"#;

/// Volumetric DDoS detection with local mitigation (drop rule on the
/// victim prefix) and harvester-coordinated recovery.
pub const DDOS: &str = r#"
fun victimsOver(list stats, long limitBytes): list {
  list victims;
  int i = 0;
  while (i < list_len(stats)) {
    if (stat_rx_bytes(list_get(stats, i)) + stat_tx_bytes(list_get(stats, i)) >= limitBytes) then {
      list_push(victims, stat_subject(list_get(stats, i)));
    }
    i = i + 1;
  }
  return victims;
}
machine DDoS {
  place all;
  external string protectedPrefix = "10.0.0.0/8";
  external long volumeThreshold = 50000000;
  external long sustainWindows = 2;
  poll victimStats = Poll {
    .ival = 100/res().PCIe,
    .what = dstIP protectedPrefix
  };
  long suspectWindows = 0;
  list victims;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 200 and res.TCAM >= 4) then {
        return min(2 * res.vCPU, res.PCIe);
      }
    }
    when (victimStats as stats) do {
      victims = victimsOver(stats, volumeThreshold);
      if (not is_list_empty(victims)) then {
        suspectWindows = 1;
        transit suspect;
      }
    }
  }
  state suspect {
    util (res) { return 60; }
    when (victimStats as stats) do {
      victims = victimsOver(stats, volumeThreshold);
      if (is_list_empty(victims)) then {
        suspectWindows = 0;
        transit observe;
      } else {
        suspectWindows = suspectWindows + 1;
        if (suspectWindows >= sustainWindows) then {
          transit mitigate;
        }
      }
    }
  }
  state mitigate {
    util (res) { return 100; }
    when (enter) do {
      addTCAMRule(Rule {
        .pattern = dstIP protectedPrefix,
        .act = action_rate_limit(1000000)
      });
      send victims to harvester;
    }
    when (victimStats as stats) do {
      victims = victimsOver(stats, volumeThreshold / 2);
      if (is_list_empty(victims)) then {
        transit recover;
      }
    }
    when (recv string release from harvester) do {
      transit recover;
    }
  }
  state recover {
    util (res) { return 20; }
    when (enter) do {
      removeTCAMRule(dstIP protectedPrefix);
      send suspectWindows to harvester;
      suspectWindows = 0;
      transit observe;
    }
  }
  when (recv long newThreshold from harvester) do {
    volumeThreshold = newThreshold;
  }
}
"#;

/// New TCP connection counting (NetQRE example): count SYNs per window
/// and report the rate to the harvester.
pub const NEW_TCP_CONN: &str = r#"
machine NewTcpConn {
  place all;
  probe synProbe = Probe { .ival = 1, .what = proto "tcp" };
  time report = 1000;
  long conns = 0;
  state counting {
    util (res) {
      if (res.vCPU >= 1) then { return res.vCPU; }
    }
    when (synProbe as pkt) do {
      if (pkt_is_syn(pkt) and not pkt_is_ack(pkt)) then {
        conns = conns + 1;
      }
    }
    when (report) do {
      send conns to harvester;
      conns = 0;
    }
  }
}
"#;

/// TCP SYN flood detection: per-destination SYN-minus-ACK imbalance with
/// local rate-limit reaction.
pub const TCP_SYN_FLOOD: &str = r#"
fun bump(list counters, string key, int delta): list {
  list updated;
  bool found = false;
  int i = 0;
  while (i < list_len(counters)) {
    if (pair_first(list_get(counters, i)) == key) then {
      list_push(updated, pair(key, to_int(pair_second(list_get(counters, i))) + delta));
      found = true;
    } else {
      list_push(updated, list_get(counters, i));
    }
    i = i + 1;
  }
  if (not found) then {
    list_push(updated, pair(key, delta));
  }
  return updated;
}
fun overLimit(list counters, int limit): list {
  list hot;
  int i = 0;
  while (i < list_len(counters)) {
    if (to_int(pair_second(list_get(counters, i))) >= limit) then {
      list_push(hot, pair_first(list_get(counters, i)));
    }
    i = i + 1;
  }
  return hot;
}
machine SynFlood {
  place all;
  probe synProbe = Probe { .ival = 1, .what = proto "tcp" };
  time window = 1000;
  external int imbalanceLimit = 200;
  list imbalance;
  list targets;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then { return res.vCPU; }
    }
    when (synProbe as pkt) do {
      if (pkt_is_syn(pkt) and not pkt_is_ack(pkt)) then {
        imbalance = bump(imbalance, pkt_dst_ip(pkt), 1);
      }
      if (pkt_is_ack(pkt)) then {
        imbalance = bump(imbalance, pkt_dst_ip(pkt), 0 - 1);
      }
    }
    when (window) do {
      targets = overLimit(imbalance, imbalanceLimit);
      if (not is_list_empty(targets)) then {
        transit mitigate;
      }
      list_clear(imbalance);
    }
  }
  state mitigate {
    util (res) { return 90; }
    when (enter) do {
      int i = 0;
      while (i < list_len(targets)) {
        addTCAMRule(Rule {
          .pattern = dstIP to_string(list_get(targets, i)) and proto "tcp",
          .act = action_rate_limit(500000)
        });
        i = i + 1;
      }
      send targets to harvester;
      list_clear(imbalance);
      transit observe;
    }
  }
  when (recv int newLimit from harvester) do { imbalanceLimit = newLimit; }
}
"#;

/// Partial TCP flow detection (NetQRE): flows that opened (SYN) but never
/// completed (no FIN/ACK teardown) within a timeout.
pub(crate) const PARTIAL_TCP_FLOW: &str = r#"
fun removeKey(list entries, string key): list {
  list updated;
  int i = 0;
  while (i < list_len(entries)) {
    if (pair_first(list_get(entries, i)) <> key) then {
      list_push(updated, list_get(entries, i));
    }
    i = i + 1;
  }
  return updated;
}
fun flowKeyOf(packet pkt): string {
  return str_concat(str_concat(pkt_src_ip(pkt), "-"), pkt_dst_ip(pkt));
}
fun expired(list entries, long nowMs, long timeoutMs): list {
  list result;
  int i = 0;
  while (i < list_len(entries)) {
    if (nowMs - to_int(pair_second(list_get(entries, i))) >= timeoutMs) then {
      list_push(result, pair_first(list_get(entries, i)));
    }
    i = i + 1;
  }
  return result;
}
machine PartialTcpFlow {
  place all;
  probe tcpProbe = Probe { .ival = 1, .what = proto "tcp" };
  time sweep = 1000;
  external long timeoutMs = 5000;
  list open;
  list partials;
  state tracking {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 150) then { return res.vCPU; }
    }
    when (tcpProbe as pkt) do {
      string key = flowKeyOf(pkt);
      if (pkt_is_syn(pkt) and not pkt_is_ack(pkt)) then {
        open = removeKey(open, key);
        list_push(open, pair(key, now()));
      }
      if (pkt_is_fin(pkt)) then {
        open = removeKey(open, key);
      }
    }
    when (sweep) do {
      partials = expired(open, now(), timeoutMs);
      if (not is_list_empty(partials)) then {
        transit report;
      }
    }
  }
  state report {
    util (res) { return 40; }
    when (enter) do {
      send partials to harvester;
      int i = 0;
      while (i < list_len(partials)) {
        open = removeKey(open, to_string(list_get(partials, i)));
        i = i + 1;
      }
      transit tracking;
    }
  }
  when (recv long newTimeout from harvester) do { timeoutMs = newTimeout; }
}
"#;

/// Slowloris (slow DoS) detection: many long-lived, low-volume
/// connections toward a protected service.
pub(crate) const SLOWLORIS: &str = r#"
fun slowConns(list stats, long maxBytes): int {
  int n = 0;
  int i = 0;
  while (i < list_len(stats)) {
    if (stat_tx_bytes(list_get(stats, i)) <= maxBytes
        and stat_tx_packets(list_get(stats, i)) >= 1) then {
      n = n + 1;
    }
    i = i + 1;
  }
  return n;
}
machine Slowloris {
  place all;
  external string service = "10.0.1.0/24";
  external long slowBytes = 2048;
  external int connLimit = 64;
  poll connStats = Poll {
    .ival = 500/res().PCIe,
    .what = dstIP service and dstPort 80
  };
  int slowCount = 0;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.TCAM >= 2) then { return min(res.vCPU, res.PCIe); }
    }
    when (connStats as stats) do {
      slowCount = slowConns(stats, slowBytes);
      if (slowCount >= connLimit) then {
        transit throttle;
      }
    }
  }
  state throttle {
    util (res) { return 80; }
    when (enter) do {
      addTCAMRule(Rule {
        .pattern = dstIP service and dstPort 80,
        .act = action_rate_limit(250000)
      });
      send slowCount to harvester;
    }
    when (connStats as stats) do {
      slowCount = slowConns(stats, slowBytes);
      if (slowCount < connLimit / 2) then {
        removeTCAMRule(dstIP service and dstPort 80);
        transit observe;
      }
    }
  }
}
"#;

/// Link failure detection (Everflow-style): a previously active port that
/// stops moving packets across consecutive polls is reported.
pub const LINK_FAILURE: &str = r#"
fun idlePorts(list prev, list cur): list {
  list dead;
  int i = 0;
  while (i < list_len(cur)) {
    int j = 0;
    while (j < list_len(prev)) {
      if (stat_port(list_get(prev, j)) == stat_port(list_get(cur, i))
          and stat_tx_packets(list_get(prev, j)) > 0
          and stat_tx_packets(list_get(cur, i)) == 0) then {
        list_push(dead, stat_port(list_get(cur, i)));
      }
      j = j + 1;
    }
    i = i + 1;
  }
  return dead;
}
machine LinkFailure {
  place all;
  poll portStats = Poll { .ival = 50/res().PCIe, .what = port ANY };
  list previous;
  list suspects;
  state watching {
    util (res) {
      if (res.vCPU >= 1) then { return min(res.vCPU, res.PCIe); }
    }
    when (portStats as stats) do {
      if (not is_list_empty(previous)) then {
        suspects = idlePorts(previous, stats);
        if (not is_list_empty(suspects)) then {
          transit alarmed;
        }
      }
      previous = stats;
    }
  }
  state alarmed {
    util (res) { return 70; }
    when (enter) do {
      send suspects to harvester;
      transit watching;
    }
  }
}
"#;

/// Traffic change detection — the paper's smallest task (7 LoC): forward
/// fresh statistics; the harvester runs the change detector.
pub const TRAFFIC_CHANGE: &str = r#"
machine TrafficChange {
  place all;
  poll stats = Poll { .ival = 1000, .what = port ANY };
  state forwarding {
    when (stats as s) do { send s to harvester; }
  }
}
"#;

/// Flow size distribution estimation: log2 histogram of per-subject
/// volumes, refreshed every poll and reported periodically.
pub const FLOW_SIZE_DIST: &str = r#"
fun bucketOf(long bytes): int {
  int b = 0;
  long v = bytes;
  while (v > 1) {
    v = v / 2;
    b = b + 1;
  }
  return b;
}
fun histogram(list stats, int buckets): list {
  list hist;
  int b = 0;
  while (b < buckets) {
    int count = 0;
    int i = 0;
    while (i < list_len(stats)) {
      if (bucketOf(stat_tx_bytes(list_get(stats, i))) == b) then {
        count = count + 1;
      }
      i = i + 1;
    }
    list_push(hist, count);
    b = b + 1;
  }
  return hist;
}
machine FlowSizeDist {
  place all;
  poll flowStats = Poll { .ival = 1000, .what = port ANY };
  external int buckets = 32;
  list hist;
  state estimating {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then { return res.vCPU; }
    }
    when (flowStats as stats) do {
      hist = histogram(stats, buckets);
      send hist to harvester;
    }
  }
}
"#;

/// Superspreader detection: sources contacting many distinct
/// destinations.
pub const SUPERSPREADER: &str = r#"
fun noteContact(list contacts, string src, string dst): list {
  list updated;
  bool found = false;
  int i = 0;
  while (i < list_len(contacts)) {
    if (pair_first(list_get(contacts, i)) == src) then {
      list dsts = pair_second(list_get(contacts, i));
      list_push_unique(dsts, dst);
      list_push(updated, pair(src, dsts));
      found = true;
    } else {
      list_push(updated, list_get(contacts, i));
    }
    i = i + 1;
  }
  if (not found) then {
    list fresh;
    list_push(fresh, dst);
    list_push(updated, pair(src, fresh));
  }
  return updated;
}
fun spreaders(list contacts, int fanoutLimit): list {
  list hot;
  int i = 0;
  while (i < list_len(contacts)) {
    list dsts = pair_second(list_get(contacts, i));
    if (list_len(dsts) >= fanoutLimit) then {
      list_push(hot, pair_first(list_get(contacts, i)));
    }
    i = i + 1;
  }
  return hot;
}
machine Superspreader {
  place all;
  probe pkts = Probe { .ival = 1, .what = proto "tcp" or proto "udp" };
  time window = 2000;
  external int fanoutLimit = 100;
  list contacts;
  list suspects;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 200) then { return res.vCPU; }
    }
    when (pkts as pkt) do {
      contacts = noteContact(contacts, pkt_src_ip(pkt), pkt_dst_ip(pkt));
    }
    when (window) do {
      suspects = spreaders(contacts, fanoutLimit);
      list_clear(contacts);
      if (not is_list_empty(suspects)) then {
        transit flag;
      }
    }
  }
  state flag {
    util (res) { return 85; }
    when (enter) do {
      send suspects to harvester;
      int i = 0;
      while (i < list_len(suspects)) {
        addTCAMRule(Rule {
          .pattern = srcIP to_string(list_get(suspects, i)),
          .act = action_count()
        });
        i = i + 1;
      }
      transit observe;
    }
  }
  when (recv int newLimit from harvester) do { fanoutLimit = newLimit; }
}
"#;

/// SSH brute-force detection: repeated short connections to port 22 from
/// one source.
pub const SSH_BRUTE_FORCE: &str = r#"
fun bumpStr(list counters, string key): list {
  list updated;
  bool found = false;
  int i = 0;
  while (i < list_len(counters)) {
    if (pair_first(list_get(counters, i)) == key) then {
      list_push(updated, pair(key, to_int(pair_second(list_get(counters, i))) + 1));
      found = true;
    } else {
      list_push(updated, list_get(counters, i));
    }
    i = i + 1;
  }
  if (not found) then { list_push(updated, pair(key, 1)); }
  return updated;
}
machine SshBruteForce {
  place all;
  probe sshProbe = Probe { .ival = 1, .what = dstPort 22 and proto "tcp" };
  time window = 5000;
  external int attemptLimit = 20;
  list attempts;
  state observe {
    util (res) {
      if (res.vCPU >= 1) then { return res.vCPU; }
    }
    when (sshProbe as pkt) do {
      if (pkt_is_syn(pkt) and not pkt_is_ack(pkt)) then {
        attempts = bumpStr(attempts, pkt_src_ip(pkt));
      }
    }
    when (window) do {
      int i = 0;
      while (i < list_len(attempts)) {
        if (to_int(pair_second(list_get(attempts, i))) >= attemptLimit) then {
          addTCAMRule(Rule {
            .pattern = srcIP to_string(pair_first(list_get(attempts, i))) and dstPort 22,
            .act = action_drop()
          });
          send pair_first(list_get(attempts, i)) to harvester;
        }
        i = i + 1;
      }
      list_clear(attempts);
    }
  }
}
"#;

/// Port scan detection (Jung et al. style sequential counting): one
/// source probing many distinct destination ports.
pub const PORT_SCAN: &str = r#"
fun notePort(list scans, string src, int dport): list {
  list updated;
  bool found = false;
  int i = 0;
  while (i < list_len(scans)) {
    if (pair_first(list_get(scans, i)) == src) then {
      list ports = pair_second(list_get(scans, i));
      list_push_unique(ports, dport);
      list_push(updated, pair(src, ports));
      found = true;
    } else {
      list_push(updated, list_get(scans, i));
    }
    i = i + 1;
  }
  if (not found) then {
    list fresh;
    list_push(fresh, dport);
    list_push(updated, pair(src, fresh));
  }
  return updated;
}
fun scanners(list scans, int portLimit): list {
  list hot;
  int i = 0;
  while (i < list_len(scans)) {
    if (list_len(pair_second(list_get(scans, i))) >= portLimit) then {
      list_push(hot, pair_first(list_get(scans, i)));
    }
    i = i + 1;
  }
  return hot;
}
machine PortScan {
  place all;
  probe synProbe = Probe { .ival = 1, .what = proto "tcp" };
  time window = 1000;
  external int portLimit = 50;
  list scans;
  list suspects;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then { return res.vCPU; }
    }
    when (synProbe as pkt) do {
      if (pkt_is_syn(pkt) and not pkt_is_ack(pkt)) then {
        scans = notePort(scans, pkt_src_ip(pkt), pkt_dst_port(pkt));
      }
    }
    when (window) do {
      suspects = scanners(scans, portLimit);
      list_clear(scans);
      if (not is_list_empty(suspects)) then {
        transit block;
      }
    }
  }
  state block {
    util (res) { return 90; }
    when (enter) do {
      int i = 0;
      while (i < list_len(suspects)) {
        addTCAMRule(Rule {
          .pattern = srcIP to_string(list_get(suspects, i)),
          .act = action_drop()
        });
        i = i + 1;
      }
      send suspects to harvester;
      transit observe;
    }
  }
  when (recv int newLimit from harvester) do { portLimit = newLimit; }
}
"#;

/// DNS reflection/amplification defense: large UDP/53 responses toward
/// victims that issued few requests.
pub(crate) const DNS_REFLECTION: &str = r#"
fun bumpBy(list counters, string key, int delta): list {
  list updated;
  bool found = false;
  int i = 0;
  while (i < list_len(counters)) {
    if (pair_first(list_get(counters, i)) == key) then {
      list_push(updated, pair(key, to_int(pair_second(list_get(counters, i))) + delta));
      found = true;
    } else {
      list_push(updated, list_get(counters, i));
    }
    i = i + 1;
  }
  if (not found) then { list_push(updated, pair(key, delta)); }
  return updated;
}
fun lookup(list counters, string key): int {
  int i = 0;
  while (i < list_len(counters)) {
    if (pair_first(list_get(counters, i)) == key) then {
      return to_int(pair_second(list_get(counters, i)));
    }
    i = i + 1;
  }
  return 0;
}
fun amplified(list respBytes, list reqCount, int ratioLimit): list {
  list victims;
  int i = 0;
  while (i < list_len(respBytes)) {
    string victim = to_string(pair_first(list_get(respBytes, i)));
    int resp = to_int(pair_second(list_get(respBytes, i)));
    int reqs = lookup(reqCount, victim);
    if (resp >= ratioLimit * (reqs + 1) * 512) then {
      list_push(victims, victim);
    }
    i = i + 1;
  }
  return victims;
}
machine DnsReflection {
  place all;
  probe dnsResp = Probe { .ival = 1, .what = srcPort 53 and proto "udp" };
  probe dnsReq = Probe { .ival = 1, .what = dstPort 53 and proto "udp" };
  time window = 1000;
  external int ratioLimit = 10;
  list respBytes;
  list reqCount;
  list victims;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 200 and res.TCAM >= 4) then {
        return res.vCPU;
      }
    }
    when (dnsResp as pkt) do {
      respBytes = bumpBy(respBytes, pkt_dst_ip(pkt), pkt_len(pkt));
    }
    when (dnsReq as pkt) do {
      reqCount = bumpBy(reqCount, pkt_src_ip(pkt), 1);
    }
    when (window) do {
      victims = amplified(respBytes, reqCount, ratioLimit);
      list_clear(respBytes);
      list_clear(reqCount);
      if (not is_list_empty(victims)) then {
        transit mitigate;
      }
    }
  }
  state mitigate {
    util (res) { return 95; }
    when (enter) do {
      int i = 0;
      while (i < list_len(victims)) {
        addTCAMRule(Rule {
          .pattern = dstIP to_string(list_get(victims, i)) and srcPort 53,
          .act = action_rate_limit(1000000)
        });
        i = i + 1;
      }
      send victims to harvester;
    }
    when (window) do {
      transit cooldown;
    }
    when (recv string release from harvester) do { transit cooldown; }
  }
  state cooldown {
    util (res) { return 30; }
    when (enter) do {
      int i = 0;
      while (i < list_len(victims)) {
        removeTCAMRule(dstIP to_string(list_get(victims, i)) and srcPort 53);
        i = i + 1;
      }
      list_clear(victims);
      transit observe;
    }
  }
  when (recv int newRatio from harvester) do { ratioLimit = newRatio; }
}
"#;

/// Traffic entropy estimation: Shannon entropy of the per-port volume
/// distribution; a sharp drop signals concentration (e.g. an attack).
pub const ENTROPY_ESTIMATION: &str = r#"
fun totalBytes(list stats): long {
  long total = 0;
  int i = 0;
  while (i < list_len(stats)) {
    total = total + stat_tx_bytes(list_get(stats, i));
    i = i + 1;
  }
  return total;
}
fun entropyOf(list stats): float {
  long total = totalBytes(stats);
  if (total <= 0) then {
    return 0.0;
  }
  float h = 0.0;
  int i = 0;
  while (i < list_len(stats)) {
    long b = stat_tx_bytes(list_get(stats, i));
    if (b > 0) then {
      float p = to_float(b) / to_float(total);
      h = h - p * log2(p);
    }
    i = i + 1;
  }
  return h;
}
machine EntropyEstimation {
  place all;
  poll portStats = Poll { .ival = 100/res().PCIe, .what = port ANY };
  external float alarmDrop = 2.0;
  float baseline = 0.0;
  float current = 0.0;
  long samples = 0;
  state estimating {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (portStats as stats) do {
      current = entropyOf(stats);
      samples = samples + 1;
      if (samples <= 10) then {
        baseline = (baseline * to_float(samples - 1) + current) / to_float(samples);
      } else {
        if (baseline - current >= alarmDrop) then {
          transit alarmed;
        }
        baseline = baseline * 0.95 + current * 0.05;
      }
    }
  }
  state alarmed {
    util (res) { return 75; }
    when (enter) do {
      send current to harvester;
      send baseline to harvester;
      transit estimating;
    }
  }
  when (recv float newDrop from harvester) do { alarmDrop = newDrop; }
}
"#;

/// FloodDefender: protects the SDN control plane and flow tables from
/// table-miss flooding — the largest Tab. I task (four states: detection,
/// table-miss engineering, packet filtering, recovery).
pub(crate) const FLOOD_DEFENDER: &str = r#"
fun distinctFlows(list seen, string key): list {
  list_push_unique(seen, key);
  return seen;
}
fun flowKey4(packet pkt): string {
  return str_concat(
    str_concat(pkt_src_ip(pkt), str_concat(":", to_string(pkt_src_port(pkt)))),
    str_concat("-", str_concat(pkt_dst_ip(pkt), str_concat(":", to_string(pkt_dst_port(pkt))))));
}
fun topSources(list counters, int limit): list {
  list hot;
  int i = 0;
  while (i < list_len(counters)) {
    if (to_int(pair_second(list_get(counters, i))) >= limit) then {
      list_push(hot, pair_first(list_get(counters, i)));
    }
    i = i + 1;
  }
  return hot;
}
fun bumpSrc(list counters, string key): list {
  list updated;
  bool found = false;
  int i = 0;
  while (i < list_len(counters)) {
    if (pair_first(list_get(counters, i)) == key) then {
      list_push(updated, pair(key, to_int(pair_second(list_get(counters, i))) + 1));
      found = true;
    } else {
      list_push(updated, list_get(counters, i));
    }
    i = i + 1;
  }
  if (not found) then { list_push(updated, pair(key, 1)); }
  return updated;
}
machine FloodDefender {
  place all;
  probe misses = Probe { .ival = 1, .what = proto "tcp" or proto "udp" };
  time window = 500;
  external int floodLimit = 400;
  external int srcLimit = 100;
  external long protectBudget = 8;
  list flows;
  list srcCounts;
  list attackers;
  long protecting = 0;
  state detect {
    util (res) {
      if (res.vCPU >= 2 and res.RAM >= 300 and res.TCAM >= 8) then {
        return min(res.vCPU, 2 * res.PCIe);
      }
    }
    when (misses as pkt) do {
      flows = distinctFlows(flows, flowKey4(pkt));
      srcCounts = bumpSrc(srcCounts, pkt_src_ip(pkt));
    }
    when (window) do {
      if (list_len(flows) >= floodLimit) then {
        transit engineer;
      }
      list_clear(flows);
      list_clear(srcCounts);
    }
  }
  state engineer {
    util (res) { return 100; }
    when (enter) do {
      addTCAMRule(Rule { .pattern = proto "tcp", .act = action_set_qos(7) });
      addTCAMRule(Rule { .pattern = proto "udp", .act = action_set_qos(7) });
      attackers = topSources(srcCounts, srcLimit);
      send attackers to harvester;
      transit filter;
    }
  }
  state filter {
    util (res) { return 100; }
    when (enter) do {
      int i = 0;
      while (i < list_len(attackers)) {
        if (i < protectBudget) then {
          addTCAMRule(Rule {
            .pattern = srcIP to_string(list_get(attackers, i)),
            .act = action_drop()
          });
        }
        i = i + 1;
      }
      protecting = now();
    }
    when (misses as pkt) do {
      srcCounts = bumpSrc(srcCounts, pkt_src_ip(pkt));
    }
    when (window) do {
      if (list_len(srcCounts) < floodLimit / 4) then {
        transit recover;
      }
      list_clear(srcCounts);
    }
    when (recv string release from harvester) do { transit recover; }
  }
  state recover {
    util (res) { return 40; }
    when (enter) do {
      int i = 0;
      while (i < list_len(attackers)) {
        if (i < protectBudget) then {
          removeTCAMRule(srcIP to_string(list_get(attackers, i)));
        }
        i = i + 1;
      }
      removeTCAMRule(proto "tcp");
      removeTCAMRule(proto "udp");
      send protecting to harvester;
      list_clear(attackers);
      list_clear(flows);
      list_clear(srcCounts);
      transit detect;
    }
  }
  when (recv int newFlood from harvester) do { floodLimit = newFlood; }
}
"#;

/// KISS-style volume anomaly detection (arXiv:1902.02082): simple
/// statistics beat deep models for network anomaly detection. Tracks an
/// EWMA mean and mean absolute deviation of the aggregate per-poll
/// volume; alarms when the deviation is both statistically
/// (`sigma × dev`) and practically (20 % of the mean) significant. The
/// baseline is frozen while alarming so a sustained anomaly keeps
/// reporting instead of being absorbed.
pub const KISS_VOLUME_ANOMALY: &str = r#"
fun sumVolume(list stats): long {
  long total = 0;
  int i = 0;
  while (i < list_len(stats)) {
    total = total + stat_tx_bytes(list_get(stats, i)) + stat_rx_bytes(list_get(stats, i));
    i = i + 1;
  }
  return total;
}
machine KissVolume {
  place all;
  poll portStats = Poll { .ival = 100/res().PCIe, .what = port ANY };
  external float sigma = 4.0;
  external long warmup = 8;
  float mean = 0.0;
  float dev = 0.0;
  float current = 0.0;
  long samples = 0;
  state estimating {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (portStats as stats) do {
      current = to_float(sumVolume(stats));
      samples = samples + 1;
      float d = current - mean;
      if (d < 0.0) then { d = 0.0 - d; }
      bool hot = samples > warmup and d > sigma * dev and d > mean * 0.2;
      if (hot) then {
        transit alarmed;
      } else {
        mean = mean * 0.8 + current * 0.2;
        dev = dev * 0.8 + d * 0.2;
      }
    }
  }
  state alarmed {
    util (res) { return 80; }
    when (enter) do {
      send pair(current, mean) to harvester;
      transit estimating;
    }
  }
  when (recv float newSigma from harvester) do { sigma = newSigma; }
}
"#;

/// KISS-style per-port spike detection: one EWMA baseline per port,
/// alarm listing every port whose fresh delta exceeds `factor ×` its
/// baseline. Baselines are not updated while a port is spiking, so a
/// port stays reported for as long as it stays hot. The baseline list
/// is kept positionally aligned with the poll result (an ANY-port poll
/// returns ports in a fixed order), so a poll costs O(ports), not
/// O(ports²) — at 54-port leaves this is what keeps the seed inside its
/// switch-CPU allocation.
pub const KISS_PORT_SPIKE: &str = r#"
machine KissPortSpike {
  place all;
  poll portStats = Poll { .ival = 100/res().PCIe, .what = port ANY };
  external float factor = 8.0;
  external long warmup = 5;
  external float minBytes = 1000.0;
  list baseline;
  list spikes;
  long samples = 0;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 200) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (portStats as stats) do {
      samples = samples + 1;
      list_clear(spikes);
      bool seeded = list_len(baseline) == list_len(stats);
      list fresh;
      int i = 0;
      while (i < list_len(stats)) {
        float x = to_float(stat_tx_bytes(list_get(stats, i)));
        if (not seeded) then {
          list_push(fresh, x);
        } else {
          float base = to_float(list_get(baseline, i));
          if (samples > warmup and x > factor * base and x > minBytes) then {
            list_push(spikes, stat_port(list_get(stats, i)));
            list_push(fresh, base);
          } else {
            list_push(fresh, base * 0.7 + x * 0.3);
          }
        }
        i = i + 1;
      }
      baseline = fresh;
      if (not is_list_empty(spikes)) then {
        transit alarm;
      }
    }
  }
  state alarm {
    util (res) { return 80; }
    when (enter) do {
      send spikes to harvester;
      transit observe;
    }
  }
  when (recv float newFactor from harvester) do { factor = newFactor; }
}
"#;

/// DiG-style microburst watcher (arXiv:1806.02698): polls port counters
/// at the fastest interval the PCIe budget sustains (sub-ms on the
/// modelled switches) and reports any port whose per-poll delta crosses
/// the burst threshold — the high-resolution regime the paper never
/// measured.
pub const DIG_MICROBURST: &str = r#"
machine DigMicroburst {
  place all;
  poll fastStats = Poll { .ival = 1/res().PCIe, .what = port ANY };
  external long burstBytes = 100000;
  list bursting;
  state watch {
    util (res) {
      if (res.vCPU >= 1 and res.PCIe >= 1) then { return res.PCIe; }
    }
    when (fastStats as stats) do {
      list_clear(bursting);
      int i = 0;
      while (i < list_len(stats)) {
        if (stat_tx_bytes(list_get(stats, i)) >= burstBytes) then {
          list_push(bursting, stat_port(list_get(stats, i)));
        }
        i = i + 1;
      }
      if (not is_list_empty(bursting)) then {
        send bursting to harvester;
      }
    }
  }
  when (recv long newBurst from harvester) do { burstBytes = newBurst; }
}
"#;

/// The anomaly-detection programs added beyond Tab. I: KISS-style simple
/// statistics (arXiv:1902.02082) and the DiG sub-ms poller
/// (arXiv:1806.02698), as `(machine, source)` pairs.
pub const ANOMALY_PROGRAMS: &[(&str, &str)] = &[
    ("KissVolume", KISS_VOLUME_ANOMALY),
    ("KissPortSpike", KISS_PORT_SPIKE),
    ("DigMicroburst", DIG_MICROBURST),
];

/// All Tab. I use cases, in the paper's order.
pub const USE_CASES: &[UseCase] = &[
    UseCase {
        name: "Heavy hitter (HH)",
        source: HEAVY_HITTER,
        machine: "HH",
        paper_seed_loc: 29,
        paper_harvester_loc: 12,
    },
    UseCase {
        name: "Hier. HH (inherited)",
        source: HIER_HH_INHERITED,
        machine: "HHH",
        paper_seed_loc: 21,
        paper_harvester_loc: 26,
    },
    UseCase {
        name: "Hier. HH",
        source: HIER_HH_STANDALONE,
        machine: "HHH2",
        paper_seed_loc: 38,
        paper_harvester_loc: 26,
    },
    UseCase {
        name: "DDoS",
        source: DDOS,
        machine: "DDoS",
        paper_seed_loc: 71,
        paper_harvester_loc: 30,
    },
    UseCase {
        name: "New TCP conn.",
        source: NEW_TCP_CONN,
        machine: "NewTcpConn",
        paper_seed_loc: 19,
        paper_harvester_loc: 5,
    },
    UseCase {
        name: "TCP SYN flood",
        source: TCP_SYN_FLOOD,
        machine: "SynFlood",
        paper_seed_loc: 63,
        paper_harvester_loc: 18,
    },
    UseCase {
        name: "Partial TCP flow",
        source: PARTIAL_TCP_FLOW,
        machine: "PartialTcpFlow",
        paper_seed_loc: 73,
        paper_harvester_loc: 18,
    },
    UseCase {
        name: "Slowloris",
        source: SLOWLORIS,
        machine: "Slowloris",
        paper_seed_loc: 44,
        paper_harvester_loc: 29,
    },
    UseCase {
        name: "Link failure",
        source: LINK_FAILURE,
        machine: "LinkFailure",
        paper_seed_loc: 31,
        paper_harvester_loc: 8,
    },
    UseCase {
        name: "Traffic change",
        source: TRAFFIC_CHANGE,
        machine: "TrafficChange",
        paper_seed_loc: 7,
        paper_harvester_loc: 5,
    },
    UseCase {
        name: "Flow size distr.",
        source: FLOW_SIZE_DIST,
        machine: "FlowSizeDist",
        paper_seed_loc: 30,
        paper_harvester_loc: 15,
    },
    UseCase {
        name: "Superspreader",
        source: SUPERSPREADER,
        machine: "Superspreader",
        paper_seed_loc: 58,
        paper_harvester_loc: 21,
    },
    UseCase {
        name: "SSH brute force",
        source: SSH_BRUTE_FORCE,
        machine: "SshBruteForce",
        paper_seed_loc: 34,
        paper_harvester_loc: 9,
    },
    UseCase {
        name: "Port scan",
        source: PORT_SCAN,
        machine: "PortScan",
        paper_seed_loc: 44,
        paper_harvester_loc: 23,
    },
    UseCase {
        name: "DNS reflection",
        source: DNS_REFLECTION,
        machine: "DnsReflection",
        paper_seed_loc: 83,
        paper_harvester_loc: 22,
    },
    UseCase {
        name: "Entropy estim.",
        source: ENTROPY_ESTIMATION,
        machine: "EntropyEstimation",
        paper_seed_loc: 67,
        paper_harvester_loc: 15,
    },
    UseCase {
        name: "FloodDefender",
        source: FLOOD_DEFENDER,
        machine: "FloodDefender",
        paper_seed_loc: 126,
        paper_harvester_loc: 35,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::frontend;

    #[test]
    fn every_use_case_compiles() {
        for u in USE_CASES {
            frontend(u.source).unwrap_or_else(|e| panic!("{} failed to compile: {e}", u.name));
        }
    }

    #[test]
    fn every_use_case_declares_its_machine() {
        for u in USE_CASES {
            let p = frontend(u.source).unwrap();
            assert!(
                p.machine(u.machine).is_some(),
                "{}: machine {} missing",
                u.name,
                u.machine
            );
        }
    }

    #[test]
    fn every_anomaly_program_compiles_and_declares_its_machine() {
        for (machine, source) in ANOMALY_PROGRAMS {
            let p = frontend(source).unwrap_or_else(|e| panic!("{machine} failed to compile: {e}"));
            assert!(p.machine(machine).is_some(), "machine {machine} missing");
        }
    }

    #[test]
    fn table_matches_paper_row_count() {
        // Tab. I lists 16 use cases; HHH appears in inherited and
        // standalone variants → 17 rows.
        assert_eq!(USE_CASES.len(), 17);
    }

    #[test]
    fn loc_counts_are_in_the_papers_ballpark() {
        // We do not chase exact numbers (different concrete syntax), but
        // relative sizes must hold: TrafficChange is the smallest,
        // FloodDefender the largest.
        let locs: Vec<(usize, &str)> = USE_CASES.iter().map(|u| (loc(u.source), u.name)).collect();
        let tc = loc(TRAFFIC_CHANGE);
        let fd = loc(FLOOD_DEFENDER);
        assert!(tc <= 10, "traffic change should be tiny, got {tc}");
        for (l, name) in &locs {
            if *name != "FloodDefender" {
                assert!(*l < fd, "{name} ({l}) >= FloodDefender ({fd})");
            }
        }
    }

    #[test]
    fn loc_skips_blank_and_comment_lines() {
        assert_eq!(loc("a\n\n// c\n  b\n"), 2);
    }

    #[test]
    fn inherited_hhh_is_smaller_than_standalone_plus_base() {
        // The point of inheritance (Tab. I): the inherited variant's
        // *extension* is smaller than a standalone reimplementation.
        let p = frontend(HIER_HH_INHERITED).unwrap();
        let hhh = p.machine("HHH").unwrap();
        assert_eq!(hhh.extends.as_deref(), Some("HH"));
        // Flattened machine carries the parent's poll trigger.
        assert!(hhh.trigger_vars().any(|v| v.name == "pollStats"));
    }
}
