(** Wire protocol of the [hlpowerd] serving daemon.

    Framing is newline-delimited JSON: one request or reply per line,
    each line one JSON object, terminated by ['\n'].  Frames larger than
    the reader's [max_frame] are rejected {e without} being buffered
    (the reader discards to the next newline), so a hostile or broken
    client cannot blow up server memory.

    A request names an operation — the same operations the CLI exposes —
    with the same parameters (and the CLI's defaults when omitted; a
    parameter the operation does not recognise is ignored):

    {v
    {"id": 1, "op": "flow",
     "deadline_ms": 30000,
     "params": {"bench": "pr", "binder": "hlpower", "alpha": 0.5,
                "width": 8, "vectors": 100, "port_assign": false}}
    v}

    A reply echoes the request [id] and carries either a result:

    {v
    {"id": 1, "status": "ok", "op": "flow", "result": {...},
     "telemetry": {"sa_table.hits": 412, ...}, "elapsed_ms": 93.2}
    v}

    or a structured error whose [diagnostics] reuse the
    {!Hlp_lint.Diagnostic} shape:

    {v
    {"id": 1, "status": "error",
     "error": {"code": "bad_request", "message": "...",
               "diagnostics": [{"code": "S003", "severity": "error",
                                "loc": {"kind": "design"},
                                "message": "width must be positive"}]}}
    v}

    Error codes: [parse_error] (S001 — frame is not a JSON object; the
    diagnostic's [loc] is the byte offset and its message quotes the
    offending line; S012 — well-formed but nested beyond the parser's
    recursion budget), [unknown_op] (S002), [bad_request] (S003 — bad
    parameter, unknown benchmark/binder; S007 — inline graph over an
    admission size limit; S008 — inline graph with a self, forward or
    cyclic reference, or an out-of-range input/op index; S009 — a
    numeric parameter that parsed to infinity or a subnormal; S010 — a
    duplicated object key anywhere in the frame; S011 — a hostile
    power-model override field), [frame_too_large] (S012 — the frame
    exceeded the reader's byte cap and was discarded unread),
    [overloaded] (bounded queue full — retry later),
    [deadline_exceeded] (the request's deadline expired before or during
    execution), [draining] (daemon is shutting down; accepted work still
    completes), [internal].

    {2 Inline graphs}

    [bind] and [flow] accept an inline CDFG instead of a named
    benchmark (the two are mutually exclusive):

    {v
    {"op": "flow",
     "params": {"width": 8,
                "graph": {"name": "mine", "inputs": 3,
                          "ops": [{"kind": "add",
                                   "left": {"input": 0},
                                   "right": {"input": 1}},
                                  {"kind": "mult",
                                   "left": {"op": 0},
                                   "right": {"input": 2}}],
                          "outputs": [{"op": 1}]}}}
    v}

    Ops are identified by list position and an operand may only
    reference a {e smaller} op id, so the wire format cannot express a
    cycle without containing a self or forward reference — which is
    exactly what the validator rejects (S008).  Size limits
    ({!max_graph_ops}, {!max_graph_inputs}, {!max_graph_outputs}) are
    enforced against the raw JSON before any per-element validation
    (S007), so oversized hostile graphs are turned away in O(size of
    the frame).

    {2 Incremental sessions}

    [session_open] admits a CDFG (named benchmark or inline graph, same
    rules as [bind]) into a server-side session, binds it, and replies
    with a server-generated session id plus the bind result.
    [session_edit] applies one delta — add/remove an op, change a
    resource bound, nudge alpha — re-binds incrementally against the
    session's warm binder state, and replies with a [bind] object
    {e bit-identical} to a from-scratch bind of the edited graph.
    [session_close] discharges the session.

    {v
    {"op": "session_open",
     "params": {"bench": "pr", "binder": "hlpower", "alpha": 0.5,
                "width": 8, "k": 4, "resources": {"add": 2, "mult": 2}}}
    {"op": "session_edit",
     "params": {"session": "s-1",
                "delta": {"kind": "add_op", "op_kind": "add",
                          "left": {"input": 0}, "right": {"op": 3},
                          "output": true}}}
    {"op": "session_edit",
     "params": {"session": "s-1",
                "delta": {"kind": "set_alpha", "alpha": 1.0}}}
    {"op": "session_close", "params": {"session": "s-1"}}
    v}

    Delta kinds: [add_op] (append one op; [output] also lists it as a
    graph output), [remove_op] (by id; the op must feed nothing),
    [set_resource] ([class] of ["add"]/["mult"], positive [units]),
    [set_alpha].  Deltas are transactional: an invalid delta leaves the
    session unchanged.  Session-specific diagnostics (under
    [bad_request]): S013 — unknown, closed or expired session id; S014
    — a delta that does not validate against the session's current
    graph (bad reference, removing a consumed op or the last output,
    a resource bound below the schedule's density); S015 — the session
    table is full.  S016 reports an SA-calibration failure (e.g. a K<2
    library cannot map the (2,2) calibration datapath) for any op that
    runs the hlpower binder. *)

module Diagnostic = Hlp_lint.Diagnostic

(** Parameters of [bind] and [flow] — the CLI [bind] options. *)
type bind_params = {
  bench : string;  (** named benchmark; [""] when [graph] is given *)
  binder : string;  (** ["hlpower"] or ["lopass"] *)
  alpha : float;
  width : int;  (** datapath bit width, within [1..max_width] *)
  vectors : int;
  port_assign : bool;
  estimator : string;
      (** power estimator for [flow], canonicalized to ["sim"],
          ["static"] or ["both"]
          (see {!Hlp_rtl.Power.estimator_of_string}) *)
  graph : Hlp_cdfg.Cdfg.t option;
      (** inline CDFG, mutually exclusive with [bench] *)
  model : Hlp_rtl.Power.model option;
      (** per-request power/timing constant override; fields not given
          keep {!Hlp_rtl.Power.default_model}'s values.  Every field is
          validated at the parse boundary: non-finite and subnormal
          values are rejected with S011, as are non-positive [vdd] /
          [c_base_f] and negative per-unit adders. *)
}

val default_bind_params : bind_params

(** [usable_number f] is true iff [f] is a value the estimator can
    compute with: finite and not subnormal.  JSON cannot spell NaN, but
    [1e999] parses to infinity and [5e-324] to a subnormal; parameters
    failing this predicate are rejected with S009 (request numerics) or
    S011 (power-model fields). *)
val usable_number : float -> bool

(** Admission limits for inline graphs, and the width cap; requests
    beyond them are rejected with S007 (sizes) / S003 (width) before
    any expensive work. *)
val max_graph_ops : int

val max_graph_inputs : int
val max_graph_outputs : int
val max_width : int

(** Parameters of [explore] — the CLI [explore] options plus the sweep
    grid. *)
type explore_params = {
  ex_bench : string;
  ex_width : int;
  ex_vectors : int;
  ex_adds : int list;
  ex_mults : int list;
  ex_alphas : float list;
}

val default_explore_params : explore_params

(** Parameters of [lint] — the CLI [lint] options. *)
type lint_params = {
  lint_bench : string option;  (** [None] = every benchmark and kernel *)
  lint_binder : string;  (** ["hlpower"], ["lopass"] or ["both"] *)
  lint_width : int;
}

val default_lint_params : lint_params

(** Length cap on a [session] parameter (server ids are far shorter;
    the cap stops echo amplification). *)
val max_session_id_len : int

(** Ceiling on the [k] (LUT arity) session parameter. *)
val max_session_k : int

(** One session edit.  Shapes are validated by {!decode_request};
    references are checked against the session's current graph by the
    router (S014). *)
type session_delta =
  | D_add_op of {
      d_kind : Hlp_cdfg.Cdfg.op_kind;
      d_left : Hlp_cdfg.Cdfg.operand;
      d_right : Hlp_cdfg.Cdfg.operand;
      d_output : bool;  (** also list the new op as a graph output *)
    }
  | D_remove_op of int  (** op id; must have no consumers *)
  | D_set_resource of Hlp_cdfg.Cdfg.fu_class * int
  | D_set_alpha of float

(** Parameters of [session_open] — admission mirrors [bind] (named
    benchmark xor inline graph, same caps), plus the SA table's LUT
    arity [k] and optional explicit resource bounds (default: the
    schedule's per-class density, the paper's lower bound). *)
type session_open_params = {
  so_bench : string;
  so_graph : Hlp_cdfg.Cdfg.t option;
  so_binder : string;  (** ["hlpower"] or ["lopass"] *)
  so_alpha : float;
  so_width : int;
  so_k : int;  (** within [1..max_session_k]; K<2 trips S016 *)
  so_res_add : int option;
  so_res_mult : int option;
}

val default_session_open_params : session_open_params

type session_edit_params = { se_session : string; se_delta : session_delta }
type session_close_params = { sc_session : string }

type op =
  | Ping of int  (** milliseconds to hold the worker slot (testing/health) *)
  | Bind of bind_params  (** binder only: binding summary + mux stats *)
  | Flow of bind_params  (** full pipeline: the {!Hlp_rtl.Flow.report} *)
  | Explore of explore_params
  | Lint of lint_params
  | Session_open of session_open_params
  | Session_edit of session_edit_params
  | Session_close of session_close_params
  | Stats
  | Cluster_stats
      (** telemetry export for the metrics endpoint: a worker answers
          for itself, a cluster head aggregates every shard's reply *)

(** Wire name of an operation (["ping"], ["bind"], ...). *)
val op_name : op -> string

type request = {
  id : Hlp_util.Json.t;
      (** echoed verbatim in the reply; [Null] when absent *)
  deadline_ms : int option;  (** per-request deadline, from receipt *)
  op : op;
}

type error_code =
  | Parse_error
  | Unknown_op
  | Bad_request
  | Frame_too_large
  | Overloaded
  | Deadline_exceeded
  | Draining
  | Unavailable
      (** cluster head could not reach any live shard for the request's
          key (or the shard owning a session died); retryable once the
          ring heals *)
  | Internal

(** Every error code with its wire name. *)
val error_codes : (error_code * string) list

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

type payload =
  | Result of {
      op : string;  (** the request's operation name *)
      result : Hlp_util.Json.t;
      telemetry : (string * int) list;
          (** counters this request moved ({!Hlp_util.Telemetry.with_scope}) *)
      elapsed_ms : float;
    }
  | Error of {
      code : error_code;
      message : string;
      diagnostics : Diagnostic.t list;
    }

type reply = { reply_id : Hlp_util.Json.t; payload : payload }

(** [error_reply ?diagnostics ~id code fmt ...] builds an error reply
    with a formatted message. *)
val error_reply :
  ?diagnostics:Diagnostic.t list ->
  id:Hlp_util.Json.t ->
  error_code ->
  ('a, unit, string, reply) format4 ->
  'a

(** {2 Encoding / decoding} — strings never include the frame
    terminator; {!write_frame} appends it. *)

val encode_request : request -> string

(** A rejected request: the code, the echoed [id] (recovered from the
    frame when it parsed at all, [Null] otherwise), and one diagnostic
    per offense. *)
type decode_error = {
  err_code : error_code;
  err_id : Hlp_util.Json.t;
  err_diagnostics : Diagnostic.t list;
}

(** [decode_request line] validates [line] into a request.  All
    problems are collected: the error side carries one diagnostic per
    offense (S001 malformed JSON, S002 unknown/missing op, S003 bad
    parameter, S007 oversized inline graph, S008 ill-formed inline
    graph reference, S009 non-finite/subnormal numeric parameter, S010
    duplicate object key, S011 hostile power-model field, S012 nesting
    deeper than the parser's recursion budget), never just the first.

    One schema lists each op's parameters; this decoder,
    {!encode_request}, {!random_request} and {!params_table} read it.
    Diagnostics follow it: S010s, each parameter's in table order, the
    cross-field rules (bench xor graph, a required [session] or
    [delta]), then [deadline_ms].  Five frames that once decoded and
    failed or misbehaved at execution are S003s here: [explore] alphas
    outside [0, 1], [explore] or [lint] width over {!max_width},
    [explore] adds or mults below 1, and [ping] sleep_ms below 0. *)
val decode_request : string -> (request, decode_error) result

(** [random_request rand] draws a request, of any op, that decodes
    back to itself.  Unbounded integers stay small ([vectors] <= 64,
    [sleep_ms] <= 5), so a drawn request is cheap to execute. *)
val random_request : Random.State.t -> request

(** The Markdown table of every op's parameters that DESIGN §11
    embeds verbatim. *)
val params_table : unit -> string

val encode_reply : reply -> string

(** [decode_reply line] is the client-side inverse of {!encode_reply}.
    Round-trip law: [decode_reply (encode_reply r) = Ok r] for every
    reply whose [result] contains no [Hlp_util.Json.Raw] fragments (raw
    fragments come back as parsed values). *)
val decode_reply : string -> (reply, string) result

(** {2 Framing} *)

(** Default frame-size cap: 1 MiB. *)
val default_max_frame : int

(** Buffered frame reader over a file descriptor. *)
type reader

val reader_of_fd : ?max_frame:int -> Unix.file_descr -> reader

(** [read_frame r] blocks for the next frame.
    [`Frame line] is one complete line without its ['\n'].
    [`Too_large n] reports a frame of [n] bytes (> [max_frame]) that was
    discarded in full, up to its terminating newline (or EOF) — the
    connection remains usable and the next {!read_frame} reads the
    following frame (or [`Eof]).
    [`Eof] means the peer closed with no partial frame outstanding (a
    partial unterminated frame at EOF is delivered as [`Frame]). *)
val read_frame : reader -> [ `Frame of string | `Too_large of int | `Eof ]

(** [write_frame fd line] writes [line] plus the ['\n'] terminator,
    retrying short writes and EINTR until complete.
    @raise Unix.Unix_error on a broken connection. *)
val write_frame : Unix.file_descr -> string -> unit

(** {2 Poisoning writer}

    A newline-delimited stream has no framing beyond the bytes
    themselves: if a frame fails {e after a partial write}, the peer is
    left mid-line and every later frame would be parsed as the tail of
    the torn one — silent cross-request corruption.  [writer] makes
    that state explicit.  On a partial-write failure the connection is
    {e poisoned}: its write side is shut down (so the peer sees EOF at
    the tear, never a spliced frame) and all subsequent writes report
    [`Dropped].  A failure before any byte left ([`Error]) leaves the
    stream intact — only that reply is lost.  All operations are
    serialized by an internal mutex, so concurrent completions cannot
    interleave frames either. *)
type writer

val writer_of_fd : Unix.file_descr -> writer

(** True once a partial-write failure has poisoned the stream. *)
val writer_poisoned : writer -> bool

(** [write_framed w line] writes one frame.
    [`Ok]: fully written.  [`Error]: write failed with zero bytes sent;
    the stream is still well-framed.  [`Poisoned]: write failed
    mid-frame; the stream is torn, the write side has been shut down,
    and every later call returns [`Dropped].  Never raises. *)
val write_framed :
  writer -> string -> [ `Ok | `Error | `Poisoned | `Dropped ]
