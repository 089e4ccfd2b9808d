//! Typed frames and the versioned binary codec.
//!
//! Every message on a FARM control connection is one [`Envelope`]:
//!
//! ```text
//! ┌───────────┬─────────┬──────┬───────┬────────────┬─────────┐
//! │ len:varint│ ver:u8  │kind:u8│flags:u8│ corr:varint│ payload │
//! └───────────┴─────────┴──────┴───────┴────────────┴─────────┘
//! ```
//!
//! `len` counts the bytes after the length field. `corr` is the
//! multiplexing correlation id: `0` marks a one-way frame, any other
//! value pairs a request with the response that echoes it (`flags`
//! bit 0 set). Integers travel as LEB128 varints (signed values
//! zigzag-folded first), floats as IEEE-754 bits, strings UTF-8 with a
//! varint length prefix. Decoding is byte-exact: a frame re-encodes to
//! the same bytes, and `decode(encode(f)) == f` for every frame.
//!
//! ## Adding a message or a field
//!
//! Each message is declared **once**, through `wire_struct!` or
//! `wire_enum!`: the public type, its tag, its `kind()` name, both
//! directions of the codec and the allocation bound of any list that
//! holds it all follow from that declaration. Fields travel in
//! declaration order.
//!
//! * A new message is a new variant with the next free tag, under the
//!   same [`PROTOCOL_VERSION`]. A peer that predates it answers with a
//!   typed [`WireError::Tag`] and keeps its stream aligned — never a
//!   panic, never a desync.
//! * A tag whose message was deleted is reserved and never reused: a
//!   released peer may still send it, and must get that same typed
//!   error rather than a different message. [`Frame`] tags 2–5 are
//!   reserved (the retired `PollReport`, `HarvesterDirective`,
//!   `SeedMessage` and `Migrate`), and so is [`ControlOp`] tag 18 (the
//!   retired `ExplainSubmit`, whose question `Trace` answers).
//! * A field added to a released message goes after the `;` of its
//!   variant, as a *trailing optional extension*: written only when it
//!   differs from its default, read only when bytes remain, so the
//!   common case stays byte-identical in both directions and old peers
//!   keep decoding it.
//! * Never reorder, retype or renumber: `tests/golden_bytes.rs` pins
//!   one encoding of every variant and every extension form, and a new
//!   one adds a row there and a generator arm in `tests/prop_codec.rs`.

use farm_almanac::value::{ActionValue, PacketRecord, RuleValue, StatEntry, StatSubject, Value};
use farm_netsim::switch::Resources;
use farm_netsim::types::{FilterAtom, FilterFormula, FlowKey, Ipv4, PortSel, Prefix, Proto};
use farm_soil::SeedSnapshot;

use crate::wire::{frame_prefix, put_varint, Ext, Reader, Wire, WireError, PROTOCOL_VERSION};

/// Declares a wire struct: the type exactly as written, plus its codec.
/// `MIN_LEN` is the sum of the fields' minima and a range error names the
/// field it came from.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as Wire>::MIN_LEN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
                Ok($name {
                    $($field: Wire::get(r, stringify!($field))?,)*
                })
            }
        }
    };
}

/// Declares a tagged message enum. Each variant is one group — doc
/// comment, wire tag, `kind()` name, fields — and fields after a `;`
/// form the variant's trailing optional extension (see [`Ext`]). Emits
/// the enum exactly as written (unit variants stay unit variants),
/// `kind()`, `tag()` and the payload codec; `$what` names the enum in
/// the [`WireError::Tag`] an unknown tag decodes to.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident: $what:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $kind:literal $variant:ident $({
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
                    $(; $($(#[$xmeta:meta])* $xfield:ident: $xty:ty),+ $(,)?)?
                })?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $({
                    $($(#[$fmeta])* $field: $ty,)*
                    $($($(#[$xmeta])* $xfield: $xty,)+)?
                })?,
            )*
        }

        impl $name {
            /// Stable short name of the variant, for logs, audit
            /// counters (`ctl.op.<kind>`) and error text.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $kind,)*
                }
            }

            fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant { .. } => $tag,)*
                }
            }

            /// Encodes the variant's fields (the tag travels apart).
            fn put_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$variant { $($($field,)* $($($xfield,)+)?)? } => {$(
                        $($field.put(out);)*
                        $(if $(!$xfield.is_default())||+ {
                            $($xfield.put_ext(out);)+
                        })?
                    )?})*
                }
            }

            /// Decodes the fields of the variant `tag` selects.
            fn get_payload(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
                match tag {
                    $($tag => {
                        $(
                            $(let $field = Wire::get(r, stringify!($field))?;)*
                            $(
                                let extended = r.remaining() > 0;
                                $(let $xfield = if extended {
                                    Ext::get_ext(r, stringify!($xfield))?
                                } else {
                                    <$xty>::default()
                                };)+
                            )?
                        )?
                        Ok(Self::$variant { $($($field,)* $($($xfield,)+)?)? })
                    })*
                    tag => bad_tag($what, tag),
                }
            }
        }
    };
}

/// Control ops and replies travel as `tag:u8` + payload (a [`Frame`]'s
/// tag sits in the envelope header instead, ahead of `flags`/`corr`).
macro_rules! tag_then_payload {
    ($($name:ident),*) => {$(
        impl Wire for $name {
            const MIN_LEN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                out.push(self.tag());
                self.put_payload(out);
            }
            fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
                let tag = r.u8()?;
                Self::get_payload(tag, r)
            }
        }
    )*};
}

fn bad_tag<T>(what: &'static str, tag: u8) -> Result<T, WireError> {
    Err(WireError::Tag { what, tag })
}

wire_enum! {
    /// One management operation riding a [`Frame::Control`] request.
    ///
    /// The control surface is versioned with the rest of the protocol
    /// (see the module docs): an endpoint that does not know a tag
    /// rejects the frame with a typed [`WireError::Tag`] — never a panic.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ControlOp: "control op" {
        /// Compile and deploy an Almanac program server-side.
        0 "submit" SubmitProgram { name: String, source: String },
        /// Enumerate deployed seeds, sorted by key. `from_index`/`limit`
        /// page through the listing (`limit == 0` means "everything from
        /// `from_index`"); clients speaking the pre-cursor revision encode
        /// no cursor and get the whole listing, unchanged.
        1 "list-seeds" ListSeeds { ; from_index: u64, limit: u64 },
        /// Full detail (state variables included) of one seed by its
        /// `task/mN/sN` key.
        2 "describe-seed" DescribeSeed { key: String },
        /// Operational summary as JSON. The cursor pages the counters map
        /// (same defaulting rules as [`ControlOp::ListSeeds`]).
        3 "stats" Stats { ; from_index: u64, limit: u64 },
        /// Every telemetry instrument as JSON.
        4 "metrics-dump" MetricsDump,
        /// Cordon a switch and evacuate its seeds via replanning.
        5 "drain" Drain { switch: u32 },
        /// Lift a cordon; the switch re-enters placement.
        6 "uncordon" Uncordon { switch: u32 },
        /// Force a placement round now.
        7 "replan" Replan,
        /// Checkpoint every live seed's state.
        8 "checkpoint" Checkpoint,
        /// Restore every seed from its last checkpoint.
        9 "restore" Restore,
        /// Stop the daemon after draining connections.
        10 "shutdown" Shutdown,
        /// A farmd pod joins (or re-joins) a fedd coordinator, announcing
        /// its topology manifest: wire address, switch count, and headroom
        /// quota. Registration is idempotent per `name`; the reply carries
        /// the pod's global switch-id base.
        11 "register-pod" RegisterPod {
            name: String,
            addr: String,
            switches: u64,
            quota: f64,
        },
        /// Periodic pod liveness beacon. A `Rejected` reply means the
        /// coordinator does not know this pod (e.g. it restarted) and the
        /// pod must re-register.
        12 "pod-heartbeat" PodHeartbeat { name: String, seq: u64 },
        /// Enumerate registered pods with liveness state (fedd only).
        13 "list-pods" ListPods,
        /// Migrate every seed of `task` from its current pod to `to_pod`
        /// (fedd only): drain-by-checkpoint on the source, snapshot export,
        /// submit-with-snapshot on the target, then remove from the source.
        14 "migrate-task" MigrateTask { task: String, to_pod: String },
        /// Checkpoint `task` on this pod and return its program source plus
        /// every seed snapshot (fedd → farmd, the migration export leg).
        15 "export-task" ExportTask { task: String },
        /// Deploy a program and immediately restore the carried snapshots
        /// into its seeds (fedd → farmd, the migration import leg).
        16 "submit-with-snapshot" SubmitWithSnapshot {
            name: String,
            source: String,
            seeds: Vec<(String, SeedSnapshot)>,
        },
        /// Remove a deployed task and its seeds (fedd → farmd; also the
        /// rollback path when a split deployment partially fails).
        17 "remove-task" RemoveTask { task: String },
        // 18: reserved (see the module docs).
        /// The spans of op `id` in the daemon's trace ring, or of every
        /// op it still holds for `id` 0, as a JSON body. Answered by the
        /// daemon skeleton, not the core.
        19 "trace" Trace { id: u64 },
        /// Hold the daemon's kept state to its recomputation
        /// (`Farm::audit`); fedd asks every live pod
        /// ([`ControlReply::Audited`]).
        20 "audit" Audit,
        /// `op`, sent as a part of the op `parent` of the sender's trace
        /// ring (fedd → farmd, a fan-out's request): served as `op`, and
        /// filed in the trace ring under `op`'s kind with `parent` named.
        21 "traced" Traced { parent: u64, op: Box<ControlOp> },
    }
}

impl ControlOp {
    /// The whole seed listing, unpaginated — encodes without a cursor,
    /// byte-identical to the pre-cursor revision of this op.
    pub fn list_all() -> ControlOp {
        ControlOp::ListSeeds {
            from_index: 0,
            limit: 0,
        }
    }

    /// The full stats summary, unpaginated (same compatibility note as
    /// [`ControlOp::list_all`]).
    pub fn stats_all() -> ControlOp {
        ControlOp::Stats {
            from_index: 0,
            limit: 0,
        }
    }
}

wire_struct! {
    /// One registered pod as reported by [`ControlOp::ListPods`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct PodInfo {
        /// Registration name (unique per federation).
        pub name: String,
        /// Wire address of the pod's farmd control endpoint.
        pub addr: String,
        /// Switches the pod manages (its local id space is `0..switches`).
        pub switches: u64,
        /// Global switch-id base assigned by the coordinator; global id
        /// `base + i` is the pod's local switch `i`.
        pub base: u64,
        /// Admission headroom quota the pod advertised.
        pub quota: f64,
        /// True while heartbeats arrive within the liveness window.
        pub live: bool,
        /// Heartbeats observed since registration.
        pub beats: u64,
        /// Milliseconds since the last heartbeat (or registration).
        pub age_ms: u64,
    }
}

wire_struct! {
    /// One deployed seed as reported over the control surface.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SeedDescriptor {
        /// Stable key, `task/mN/sN`.
        pub key: String,
        pub task: String,
        pub machine: String,
        /// Hosting switch.
        pub switch: u32,
        /// Current state-machine state.
        pub state: String,
        /// Allocated resources (vCPU, RAM MB, TCAM, PCIe polls/s).
        pub alloc: [f64; 4],
    }
}

wire_struct! {
    /// One compiler diagnostic returned by a rejected SubmitProgram.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Diagnostic {
        /// Machine the error belongs to (empty for program-level errors).
        pub machine: String,
        /// Compilation phase (`lex`, `parse`, `typecheck`, `analysis`).
        pub phase: String,
        pub line: u32,
        pub col: u32,
        pub message: String,
    }
}

wire_enum! {
    /// Answer to a [`ControlOp`], riding a [`Frame::ControlReply`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum ControlReply: "control reply" {
        /// Generic success for ops without a payload.
        0 "ok" Ok,
        /// SubmitProgram succeeded: the task was compiled and placed.
        1 "submitted" Submitted {
            task: String,
            seeds: u64,
            /// Placement actions the deploying replan executed.
            actions: u64,
        },
        /// ListSeeds answer: one page of the key-sorted listing. For a
        /// paginated request, `next_index` is the cursor of the next page
        /// (`0` = listing exhausted) and `total` the full listing size;
        /// unpaginated replies carry `0`/`0` and encode byte-identically to
        /// the pre-cursor revision — only cursor-aware clients ever
        /// receive a paginated reply.
        2 "seeds" Seeds {
            seeds: Vec<SeedDescriptor>;
            next_index: u64,
            total: u64,
        },
        /// DescribeSeed answer: descriptor plus rendered state variables.
        3 "seed" Seed {
            desc: SeedDescriptor,
            vars: Vec<(String, String)>,
        },
        /// A JSON document (Stats, MetricsDump).
        4 "json" Json { body: String },
        /// Drain finished; `evacuated` seeds migrated off the switch.
        5 "drained" Drained { switch: u32, evacuated: u64 },
        /// Replan finished.
        6 "replanned" Replanned { actions: u64, dropped_tasks: u64 },
        /// Checkpoint finished over `seeds` live seeds. `persist_error` is
        /// set when the in-memory checkpoint succeeded but writing the
        /// checkpoint file failed — partial success, not a rejection.
        7 "checkpointed" Checkpointed {
            seeds: u64;
            persist_error: Option<String>,
        },
        /// Restore finished over `seeds` checkpointed seeds; `skipped`
        /// counts file entries dropped because their seed key no longer
        /// parses.
        8 "restored" Restored { seeds: u64; skipped: u64 },
        /// The op was refused (admission control, unknown key, bad input).
        9 "rejected" Rejected { reason: String },
        /// SubmitProgram failed to compile; nothing was deployed.
        10 "compile-failed" CompileFailed { diagnostics: Vec<Diagnostic> },
        /// RegisterPod succeeded; `base` is the pod's global switch base.
        11 "pod-registered" PodRegistered { base: u64 },
        /// ListPods answer: every registered pod, sorted by name.
        12 "pods" Pods { pods: Vec<PodInfo> },
        /// MigrateTask finished: `seeds` snapshots moved between pods.
        13 "migrated" Migrated {
            task: String,
            from_pod: String,
            to_pod: String,
            seeds: u64,
        },
        /// ExportTask answer: program source plus one snapshot per seed
        /// (keys are the pod-local `task/mN/sN` form).
        14 "task-export" TaskExport {
            source: String,
            seeds: Vec<(String, SeedSnapshot)>,
        },
        /// Audit answer: one line per invariant that does not hold, empty
        /// when the daemon agrees with itself. fedd prefixes each pod's
        /// lines with the pod's name.
        15 "audited" Audited { findings: Vec<String> },
    }
}

tag_then_payload!(ControlReply);

/// A control op nests in a [`ControlOp::Traced`]: each one a level of
/// the recursion bound.
impl Wire for ControlOp {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        self.put_payload(out);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
        r.nested(|r| {
            let tag = r.u8()?;
            Self::get_payload(tag, r)
        })
    }
}

wire_enum! {
    /// A typed control-plane frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Frame: "frame" {
        /// Connection preamble: who is talking and which protocol revision.
        0 "hello" Hello { node: String, protocol: u32 },
        /// Liveness beacon.
        1 "heartbeat" Heartbeat { switch: u32, seq: u64, at_ns: u64 },
        // 2–5: reserved (see the module docs).
        /// Positive acknowledgement (default response frame).
        6 "ack" Ack,
        /// Negative acknowledgement with a reason.
        7 "error" Error { message: String },
        /// Graceful close notification.
        8 "shutdown" Shutdown,
        /// Management request (operator → daemon).
        9 "control" Control { op: ControlOp },
        /// Management answer (daemon → operator).
        10 "control_reply" ControlReply { reply: ControlReply },
    }
}

/// A frame plus its multiplexing envelope fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Correlation id; `0` = one-way.
    pub corr: u64,
    /// True when this frame answers the request with the same `corr`.
    pub response: bool,
    pub frame: Frame,
}

impl Envelope {
    /// A one-way (unacknowledged) frame.
    pub fn one_way(frame: Frame) -> Envelope {
        Envelope {
            corr: 0,
            response: false,
            frame,
        }
    }

    /// A request expecting a response with the same correlation id.
    pub fn request(corr: u64, frame: Frame) -> Envelope {
        Envelope {
            corr,
            response: false,
            frame,
        }
    }

    /// The response to a request.
    pub fn response(corr: u64, frame: Frame) -> Envelope {
        Envelope {
            corr,
            response: true,
            frame,
        }
    }
}

const FLAG_RESPONSE: u8 = 0b0000_0001;

/// Encodes one envelope, appending the length-prefixed frame to `out`.
/// Returns the number of bytes appended.
pub fn encode_envelope(env: &Envelope, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let mut body = Vec::with_capacity(64);
    body.push(PROTOCOL_VERSION);
    body.push(env.frame.tag());
    body.push(if env.response { FLAG_RESPONSE } else { 0 });
    put_varint(&mut body, env.corr);
    env.frame.put_payload(&mut body);
    put_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
    out.len() - start
}

/// Decodes one envelope from the front of `buf`.
///
/// Returns the envelope and the total bytes consumed (length prefix
/// included). [`WireError::Truncated`] means the buffer holds only part
/// of a frame — streaming callers read more and retry.
pub fn decode_envelope(buf: &[u8]) -> Result<(Envelope, usize), WireError> {
    let (header, len) = frame_prefix(buf)?.ok_or(WireError::Truncated)?;
    let body = buf.get(header..header + len).ok_or(WireError::Truncated)?;
    Ok((decode_body(body)?, header + len))
}

/// Reads the envelope header of a frame body: `(tag, flags, corr)`.
fn envelope_header(r: &mut Reader<'_>) -> Result<(u8, u8, u64), WireError> {
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::Version(version));
    }
    Ok((r.u8()?, r.u8()?, r.varint()?))
}

/// Decodes a frame body (the bytes after the length prefix).
pub fn decode_body(body: &[u8]) -> Result<Envelope, WireError> {
    let mut r = Reader::new(body);
    let (tag, flags, corr) = envelope_header(&mut r)?;
    let frame = Frame::get_payload(tag, &mut r)?;
    r.finish()?;
    Ok(Envelope {
        corr,
        response: flags & FLAG_RESPONSE != 0,
        frame,
    })
}

/// Best-effort recovery of the correlation id from a frame body whose
/// payload failed to decode, so a server can answer the request with a
/// structured [`Frame::Error`] instead of wedging the client.
///
/// Returns `Some(corr)` only for request frames (`corr != 0`, response
/// flag clear) whose version and header fields parse; `None` otherwise.
pub(crate) fn decode_request_corr(body: &[u8]) -> Option<u64> {
    let (_tag, flags, corr) = envelope_header(&mut Reader::new(body)).ok()?;
    (corr != 0 && flags & FLAG_RESPONSE == 0).then_some(corr)
}

// ---------------------------------------------------------------------------
// The value tree. These are foreign types (farm-almanac, farm-netsim)
// with bit-packed flags and canonical-form checks, so their bodies are
// written out — but as `Wire`, each `put` beside its `get`.
// ---------------------------------------------------------------------------

/// `tag`, then `body`.
fn put_tagged(out: &mut Vec<u8>, tag: u8, body: &impl Wire) {
    out.push(tag);
    body.put(out);
}

impl Wire for Value {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Value::Unit => out.push(0),
            Value::Bool(b) => put_tagged(out, 1, b),
            Value::Int(i) => put_tagged(out, 2, i),
            Value::Float(f) => put_tagged(out, 3, f),
            Value::Str(s) => put_tagged(out, 4, s),
            Value::List(items) => put_tagged(out, 5, items),
            Value::Packet(p) => put_tagged(out, 6, p),
            Value::Filter(f) => put_tagged(out, 7, f),
            Value::Action(a) => put_tagged(out, 8, a),
            Value::Rule(rule) => {
                put_tagged(out, 9, &rule.pattern);
                rule.action.put(out);
            }
            Value::Resources(res) => put_tagged(out, 10, &res.0),
            Value::Stat(s) => put_tagged(out, 11, s),
            Value::Pair(a, b) => {
                put_tagged(out, 12, a);
                b.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Value, WireError> {
        r.nested(|r| match r.u8()? {
            0 => Ok(Value::Unit),
            1 => Wire::get(r, what).map(Value::Bool),
            2 => Wire::get(r, what).map(Value::Int),
            3 => Wire::get(r, what).map(Value::Float),
            4 => Wire::get(r, what).map(Value::Str),
            5 => Wire::get(r, what).map(Value::List),
            6 => Wire::get(r, what).map(Value::Packet),
            7 => Wire::get(r, what).map(Value::Filter),
            8 => Wire::get(r, what).map(Value::Action),
            9 => Ok(Value::Rule(RuleValue {
                pattern: Wire::get(r, what)?,
                action: Wire::get(r, what)?,
            })),
            10 => Wire::get(r, what).map(|res| Value::Resources(Resources(res))),
            11 => Wire::get(r, what).map(Value::Stat),
            12 => Ok(Value::Pair(Wire::get(r, what)?, Wire::get(r, what)?)),
            tag => bad_tag("value", tag),
        })
    }
}

impl Wire for Proto {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Proto::Tcp => 0,
            Proto::Udp => 1,
            Proto::Icmp => 2,
        });
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Proto, WireError> {
        match r.u8()? {
            0 => Ok(Proto::Tcp),
            1 => Ok(Proto::Udp),
            2 => Ok(Proto::Icmp),
            tag => bad_tag("proto", tag),
        }
    }
}

impl Wire for FlowKey {
    const MIN_LEN: usize =
        u32::MIN_LEN + u32::MIN_LEN + Proto::MIN_LEN + u16::MIN_LEN + u16::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.src.0.put(out);
        self.dst.0.put(out);
        self.proto.put(out);
        self.src_port.put(out);
        self.dst_port.put(out);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<FlowKey, WireError> {
        Ok(FlowKey {
            src: Ipv4(Wire::get(r, "src ip")?),
            dst: Ipv4(Wire::get(r, "dst ip")?),
            proto: Wire::get(r, what)?,
            src_port: Wire::get(r, "src port")?,
            dst_port: Wire::get(r, "dst port")?,
        })
    }
}

impl Wire for PacketRecord {
    const MIN_LEN: usize = FlowKey::MIN_LEN + u32::MIN_LEN + 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.flow.put(out);
        self.len.put(out);
        out.push((self.syn as u8) | ((self.fin as u8) << 1) | ((self.ack as u8) << 2));
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<PacketRecord, WireError> {
        let flow = Wire::get(r, what)?;
        let len = Wire::get(r, "packet len")?;
        let flags = r.u8()?;
        if flags > 0b111 {
            return Err(WireError::Range("packet flags"));
        }
        Ok(PacketRecord {
            flow,
            len,
            syn: flags & 1 != 0,
            fin: flags & 2 != 0,
            ack: flags & 4 != 0,
        })
    }
}

impl Wire for Prefix {
    const MIN_LEN: usize = u32::MIN_LEN + 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.addr.0.put(out);
        out.push(self.len);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Prefix, WireError> {
        let addr = Ipv4(Wire::get(r, "prefix addr")?);
        let len = r.u8()?;
        if len > 32 {
            return Err(WireError::Range("prefix len"));
        }
        // Prefix::new normalizes host bits; a non-canonical encoding would
        // break byte-exact re-encoding, so reject it instead.
        let p = Prefix::new(addr, len);
        if p.addr != addr {
            return Err(WireError::Range("prefix host bits"));
        }
        Ok(p)
    }
}

impl Wire for FilterFormula {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            FilterFormula::True => out.push(0),
            FilterFormula::False => out.push(1),
            FilterFormula::Atom(a) => put_tagged(out, 2, a),
            FilterFormula::And(a, b) => {
                put_tagged(out, 3, a);
                b.put(out);
            }
            FilterFormula::Or(a, b) => {
                put_tagged(out, 4, a);
                b.put(out);
            }
            FilterFormula::Not(a) => put_tagged(out, 5, a),
        }
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<FilterFormula, WireError> {
        r.nested(|r| match r.u8()? {
            0 => Ok(FilterFormula::True),
            1 => Ok(FilterFormula::False),
            2 => Wire::get(r, what).map(FilterFormula::Atom),
            3 => Ok(FilterFormula::And(Wire::get(r, what)?, Wire::get(r, what)?)),
            4 => Ok(FilterFormula::Or(Wire::get(r, what)?, Wire::get(r, what)?)),
            5 => Wire::get(r, what).map(FilterFormula::Not),
            tag => bad_tag("filter", tag),
        })
    }
}

impl Wire for PortSel {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            PortSel::Any => out.push(0),
            PortSel::Id(id) => put_tagged(out, 1, id),
        }
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<PortSel, WireError> {
        match r.u8()? {
            0 => Ok(PortSel::Any),
            1 => Wire::get(r, "if port").map(PortSel::Id),
            tag => bad_tag("portsel", tag),
        }
    }
}

impl Wire for FilterAtom {
    const MIN_LEN: usize = 1 + PortSel::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            FilterAtom::SrcIp(p) => put_tagged(out, 0, p),
            FilterAtom::DstIp(p) => put_tagged(out, 1, p),
            FilterAtom::SrcPort(p) => put_tagged(out, 2, p),
            FilterAtom::DstPort(p) => put_tagged(out, 3, p),
            FilterAtom::Proto(p) => put_tagged(out, 4, p),
            FilterAtom::IfPort(sel) => put_tagged(out, 5, sel),
        }
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<FilterAtom, WireError> {
        match r.u8()? {
            0 => Wire::get(r, what).map(FilterAtom::SrcIp),
            1 => Wire::get(r, what).map(FilterAtom::DstIp),
            2 => Wire::get(r, "src port").map(FilterAtom::SrcPort),
            3 => Wire::get(r, "dst port").map(FilterAtom::DstPort),
            4 => Wire::get(r, what).map(FilterAtom::Proto),
            5 => Wire::get(r, what).map(FilterAtom::IfPort),
            tag => bad_tag("atom", tag),
        }
    }
}

impl Wire for ActionValue {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ActionValue::Drop => out.push(0),
            ActionValue::RateLimit(bps) => put_tagged(out, 1, bps),
            ActionValue::SetQos(q) => out.extend_from_slice(&[2, *q]),
            ActionValue::Count => out.push(3),
            ActionValue::Mirror => out.push(4),
        }
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<ActionValue, WireError> {
        match r.u8()? {
            0 => Ok(ActionValue::Drop),
            1 => Wire::get(r, what).map(ActionValue::RateLimit),
            2 => Ok(ActionValue::SetQos(r.u8()?)),
            3 => Ok(ActionValue::Count),
            4 => Ok(ActionValue::Mirror),
            tag => bad_tag("action", tag),
        }
    }
}

impl Wire for StatSubject {
    const MIN_LEN: usize = 2;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            StatSubject::Port(p) => put_tagged(out, 0, p),
            StatSubject::Rule(rule) => put_tagged(out, 1, rule),
        }
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<StatSubject, WireError> {
        match r.u8()? {
            0 => Wire::get(r, "stat port").map(StatSubject::Port),
            1 => Wire::get(r, what).map(StatSubject::Rule),
            tag => bad_tag("stat subject", tag),
        }
    }
}

impl Wire for StatEntry {
    const MIN_LEN: usize = StatSubject::MIN_LEN + 4; // four counters, a byte each at least
    fn put(&self, out: &mut Vec<u8>) {
        self.subject.put(out);
        self.tx_bytes.put(out);
        self.rx_bytes.put(out);
        self.tx_packets.put(out);
        self.rx_packets.put(out);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<StatEntry, WireError> {
        Ok(StatEntry {
            subject: Wire::get(r, what)?,
            tx_bytes: Wire::get(r, what)?,
            rx_bytes: Wire::get(r, what)?,
            tx_packets: Wire::get(r, what)?,
            rx_packets: Wire::get(r, what)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{MAX_DEPTH, MAX_FRAME_LEN};

    fn round_trip(env: &Envelope) -> Envelope {
        let mut buf = Vec::new();
        encode_envelope(env, &mut buf);
        let (got, consumed) = decode_envelope(&buf).expect("decode");
        assert_eq!(consumed, buf.len(), "whole buffer consumed");
        got
    }

    /// The frame body (no length prefix) `env` travels as.
    fn body_of(env: &Envelope) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_envelope(env, &mut buf);
        let (header, _) = frame_prefix(&buf).expect("prefix").expect("complete");
        buf.split_off(header)
    }

    #[test]
    fn heartbeat_round_trips() {
        let env = Envelope::one_way(Frame::Heartbeat {
            switch: 7,
            seq: 42,
            at_ns: 1_000_000,
        });
        assert_eq!(round_trip(&env), env);
    }

    #[test]
    fn migrate_snapshot_round_trips() {
        // The import leg of a cross-pod migration: seed state with
        // nested values in transit.
        let snapshot = SeedSnapshot {
            machine: "HH".into(),
            state: "Monitor".into(),
            vars: vec![
                ("threshold".into(), Value::Int(1000)),
                (
                    "rule".into(),
                    Value::Rule(RuleValue {
                        pattern: FilterFormula::Atom(FilterAtom::DstPort(443)),
                        action: ActionValue::RateLimit(1_000_000),
                    }),
                ),
                (
                    "top".into(),
                    Value::List(vec![
                        Value::Pair(
                            Box::new(Value::Str("10.0.0.1".into())),
                            Box::new(Value::Int(-77)),
                        ),
                        Value::Float(2.5),
                        Value::Stat(StatEntry {
                            subject: StatSubject::Port(9),
                            tx_bytes: 1,
                            rx_bytes: 2,
                            tx_packets: 3,
                            rx_packets: 4,
                        }),
                    ]),
                ),
            ],
        };
        let env = Envelope::request(
            1,
            Frame::Control {
                op: ControlOp::SubmitWithSnapshot {
                    name: "hh".into(),
                    source: "machine HH { }".into(),
                    seeds: vec![
                        ("hh/m0/s0".into(), snapshot.clone()),
                        ("hh/m0/s1".into(), snapshot),
                    ],
                },
            },
        );
        assert_eq!(round_trip(&env), env);
    }

    #[test]
    fn cursorless_control_ops_decode_with_defaults() {
        // A pre-cursor client encodes ListSeeds/Stats with no payload;
        // the decoder must default to "everything".
        for (tag, want) in [(1u8, ControlOp::list_all()), (3u8, ControlOp::stats_all())] {
            let mut body = vec![PROTOCOL_VERSION, 9, 0];
            put_varint(&mut body, 4); // corr
            body.push(tag);
            let env = decode_body(&body).expect("cursorless op decodes");
            assert_eq!(env.frame, Frame::Control { op: want });
        }
    }

    #[test]
    fn a_cursor_is_read_whole_or_not_at_all() {
        // The extension group is all-or-nothing: a body that ends
        // anywhere inside the cursor is truncated — never a cursor with
        // a decoded `from_index` and a defaulted `limit`.
        let (a, b) = (300u64, 70_000u64);
        let desc = SeedDescriptor {
            key: "mon/m0/s0".into(),
            task: "mon".into(),
            machine: "M".into(),
            switch: 2,
            state: "observe".into(),
            alloc: [1.0, 100.0, 0.0, 12.5],
        };
        let paginated = [
            Frame::Control {
                op: ControlOp::ListSeeds {
                    from_index: a,
                    limit: b,
                },
            },
            Frame::Control {
                op: ControlOp::Stats {
                    from_index: a,
                    limit: b,
                },
            },
            Frame::ControlReply {
                reply: ControlReply::Seeds {
                    seeds: vec![desc],
                    next_index: a,
                    total: b,
                },
            },
        ];
        let mut cursor = Vec::new();
        put_varint(&mut cursor, a);
        put_varint(&mut cursor, b);
        for frame in paginated {
            let body = body_of(&Envelope::request(4, frame));
            let cursor_at = body.len() - cursor.len();
            assert_eq!(&body[cursor_at..], &cursor[..]);
            for cut in cursor_at + 1..body.len() {
                assert_eq!(
                    decode_body(&body[..cut]).unwrap_err(),
                    WireError::Truncated,
                    "cut {} bytes into the cursor",
                    cut - cursor_at
                );
            }
            // Cut exactly ahead of it, the frame is the unpaginated form.
            decode_body(&body[..cursor_at]).expect("cursorless form");
        }
    }

    #[test]
    fn extensionless_checkpoint_replies_stay_wire_compatible() {
        // The pre-extension revision encoded Checkpointed/Restored as
        // tag + varint(seeds) and nothing else. A new reply without the
        // trailing field must produce exactly those bytes, and exactly
        // those bytes must decode to the defaults.
        for (reply, tag) in [
            (
                ControlReply::Checkpointed {
                    seeds: 7,
                    persist_error: None,
                },
                7u8,
            ),
            (
                ControlReply::Restored {
                    seeds: 7,
                    skipped: 0,
                },
                8u8,
            ),
        ] {
            let env = Envelope::response(3, Frame::ControlReply { reply });
            let mut old = vec![PROTOCOL_VERSION, 10, FLAG_RESPONSE];
            put_varint(&mut old, 3); // corr
            old.push(tag);
            put_varint(&mut old, 7); // seeds
            assert_eq!(body_of(&env), old, "tag {tag} encoding drifted");
            assert_eq!(decode_body(&old).expect("old bytes decode"), env);
        }
    }

    #[test]
    fn list_bounds_admit_each_struct_at_its_smallest() {
        // Regression: the hand-typed element bound of `Pods` was 16 where
        // a `PodInfo` with empty strings encodes in 15, so such a reply
        // encoded fine and failed to decode with `Truncated`. The bound
        // is now the sum of the field minima. All-zero bytes decode to
        // each struct's smallest value (empty strings, zeros, `Unit`),
        // so `MIN_LEN` zeros must decode, exactly, and re-encode.
        fn smallest<T: Wire>() -> T {
            let zeros = vec![0u8; T::MIN_LEN];
            let mut r = Reader::new(&zeros);
            let v = T::get(&mut r, "smallest").expect("MIN_LEN zero bytes decode");
            r.finish().expect("and are used up");
            let mut again = Vec::new();
            v.put(&mut again);
            assert_eq!(again, zeros);
            v
        }
        assert_eq!(PodInfo::MIN_LEN, 15);
        for frame in [
            Frame::ControlReply {
                reply: ControlReply::Pods {
                    pods: vec![smallest()],
                },
            },
            Frame::ControlReply {
                reply: ControlReply::Seeds {
                    seeds: vec![smallest()],
                    next_index: 0,
                    total: 0,
                },
            },
            Frame::ControlReply {
                reply: ControlReply::CompileFailed {
                    diagnostics: vec![smallest()],
                },
            },
        ] {
            let env = Envelope::response(6, frame);
            assert_eq!(round_trip(&env), env);
        }
    }

    #[test]
    fn response_flag_survives() {
        let env = Envelope::response(17, Frame::Ack);
        let got = round_trip(&env);
        assert!(got.response);
        assert_eq!(got.corr, 17);
    }

    #[test]
    fn truncated_frames_ask_for_more_bytes() {
        let mut buf = Vec::new();
        encode_envelope(
            &Envelope::one_way(Frame::Error {
                message: "boom".into(),
            }),
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert_eq!(
                decode_envelope(&buf[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        encode_envelope(&Envelope::one_way(Frame::Ack), &mut buf);
        // Body starts after the 1-byte length prefix; flip the version.
        buf[1] = 99;
        assert_eq!(decode_envelope(&buf).unwrap_err(), WireError::Version(99));
    }

    #[test]
    fn trailing_garbage_inside_body_is_rejected() {
        let mut body = Vec::new();
        body.push(PROTOCOL_VERSION);
        body.push(6); // Ack
        body.push(0);
        put_varint(&mut body, 0);
        body.push(0xAA); // junk
        let mut buf = Vec::new();
        put_varint(&mut buf, body.len() as u64);
        buf.extend_from_slice(&body);
        assert_eq!(decode_envelope(&buf).unwrap_err(), WireError::Trailing(1));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_varint(&mut buf, (MAX_FRAME_LEN as u64) + 1);
        assert!(matches!(
            decode_envelope(&buf).unwrap_err(),
            WireError::TooLarge(_)
        ));
    }

    #[test]
    fn unknown_control_op_tag_is_a_typed_error() {
        let mut body = Vec::new();
        body.push(PROTOCOL_VERSION);
        body.push(9); // Control
        body.push(0);
        put_varint(&mut body, 8); // corr
        body.push(250); // unknown op tag
        let mut buf = Vec::new();
        put_varint(&mut buf, body.len() as u64);
        buf.extend_from_slice(&body);
        assert_eq!(
            decode_envelope(&buf).unwrap_err(),
            WireError::Tag {
                what: "control op",
                tag: 250
            }
        );
        // The correlation id is still recoverable for an Error reply.
        assert_eq!(decode_request_corr(&body), Some(8));
    }

    #[test]
    fn corr_recovery_refuses_responses_and_foreign_versions() {
        let mut body = vec![PROTOCOL_VERSION, 9, FLAG_RESPONSE];
        put_varint(&mut body, 8);
        assert_eq!(decode_request_corr(&body), None, "response flag set");
        let mut body = vec![99, 9, 0];
        put_varint(&mut body, 8);
        assert_eq!(decode_request_corr(&body), None, "foreign version");
        let mut body = vec![PROTOCOL_VERSION, 9, 0];
        put_varint(&mut body, 0);
        assert_eq!(decode_request_corr(&body), None, "one-way frame");
    }

    #[test]
    fn deep_value_nesting_is_bounded() {
        fn decode(v: &Value) -> Result<Value, WireError> {
            let mut buf = Vec::new();
            v.put(&mut buf);
            Value::get(&mut Reader::new(&buf), "value")
        }
        /// A value whose deepest path holds `nodes` nodes: lists and
        /// pairs in turn, then — a formula cannot hold a value — a
        /// filter whose formula is a tail of negations around `True`.
        fn nest(nodes: usize) -> Value {
            let outer = nodes / 2;
            let mut f = FilterFormula::True;
            for _ in 0..nodes - outer - 2 {
                f = FilterFormula::Not(Box::new(f));
            }
            let mut v = Value::Filter(f);
            for level in 0..outer {
                v = match level % 2 {
                    0 => Value::List(vec![v]),
                    _ => Value::Pair(Box::new(Value::Unit), Box::new(v)),
                };
            }
            v
        }
        // One bound for every recursive shape, however they alternate.
        let deepest = nest(MAX_DEPTH);
        assert_eq!(decode(&deepest), Ok(deepest.clone()));
        assert_eq!(decode(&nest(MAX_DEPTH + 1)), Err(WireError::Depth));
        assert_eq!(decode(&nest(MAX_DEPTH + 8)), Err(WireError::Depth));

        let mut v = Value::Int(0);
        for _ in 0..(MAX_DEPTH + 8) {
            v = Value::List(vec![v]);
        }
        assert_eq!(decode(&v), Err(WireError::Depth));
    }
}
