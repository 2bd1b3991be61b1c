(** Structured lint diagnostics.

    Every rule in the lint subsystem reports its findings as a list of
    diagnostics instead of dying on the first violation, so one run over a
    corrupted artifact surfaces {e all} of its problems.  A diagnostic
    carries a stable machine-readable [code] (see {!Lint.catalog}), a
    severity, a location inside the artifact under analysis, and a
    human-readable message. *)

type severity = Error | Warning

(** Where in the pipeline artifact a finding points.  The constructors
    mirror the four artifact kinds: ops/FUs/registers/steps for bindings
    and datapaths, nodes/nets/outputs for netlists and LUT networks, and
    source lines for parsed BLIF. *)
type loc =
  | Op of int  (** CDFG operation id *)
  | Fu of int  (** functional-unit id *)
  | Reg of int  (** register id *)
  | Step of int  (** control step *)
  | Node of int  (** netlist node id *)
  | Net of string  (** netlist net / output name *)
  | Line of int  (** 1-based source line (BLIF) *)
  | Design  (** the whole artifact *)

type t = {
  code : string;  (** stable rule identifier, e.g. ["B002"] *)
  severity : severity;
  loc : loc;
  message : string;
}

(** [error code loc fmt ...] / [warning code loc fmt ...] build a
    diagnostic with a formatted message. *)
val error : string -> loc -> ('a, unit, string, t) format4 -> 'a

val warning : string -> loc -> ('a, unit, string, t) format4 -> 'a

val is_error : t -> bool

(** [errors ds] keeps only [Error]-severity diagnostics. *)
val errors : t list -> t list

(** [codes ds] is the sorted, de-duplicated list of codes present. *)
val codes : t list -> string list

(** [has_code code ds] holds iff some diagnostic carries [code]. *)
val has_code : string -> t list -> bool

(** Total order: errors first, then by code, then by location. *)
val compare : t -> t -> int

val pp_loc : Format.formatter -> loc -> unit

(** [pp] prints one diagnostic as ["error[B002] op 3: message"]. *)
val pp : Format.formatter -> t -> unit

(** [to_string t] is [pp] rendered to a string. *)
val to_string : t -> string

(** [to_json t] is one diagnostic as the JSON object lint reports and
    the daemon's error replies carry:
    [{"code", "severity", "loc": {"kind", "index" | "name"}, "message"}]. *)
val to_json : t -> Hlp_util.Json.t

(** [of_json v] inverts {!to_json}.  [None] when [code], [severity] or
    [message] is missing; an unreadable [loc] reads as [Design] and any
    severity but ["warning"] as [Error]. *)
val of_json : Hlp_util.Json.t -> t option
