(** The tree's one JSON codec.

    Every JSON document the program writes — wire replies, the flow and
    lint reports, [HLP_BENCH_JSON], [HLP_TELEMETRY], [lint --json] — is
    built as a {!t} and printed by {!to_string}; the serving daemon also
    reads requests with {!parse}.  The environment carries no JSON
    package, so this is a small recursive-descent parser plus a printer,
    covering the full RFC 8259 grammar: [\uXXXX] escapes decode to UTF-8
    (surrogate pairs combine into one supplementary-plane code point; a
    lone surrogate becomes U+FFFD), and the printer passes non-ASCII
    bytes through verbatim, so non-ASCII string values — request ids
    included — round-trip.

    Three deliberate choices:

    - Numbers without [.], [e] or [E] parse as [Int]; everything else as
      [Float].  A finite [Float] prints with [%.17g], so a double
      survives a round trip bit-exactly — two reports print equal iff
      their metrics are bit-identical, the property the "concurrent
      clients equal sequential CLI" check and [bench_diff] rest on.  A
      non-finite [Float] prints [null].
    - Output is one line: [", "] between members and elements, [": "]
      after keys, no other whitespace.  A printed value is always a
      valid protocol frame body, and {!to_file} writes it plus a
      newline.
    - [Raw] injects pre-rendered bytes verbatim.  Its one user is the
      daemon's session reply cache, which re-sends the bind object it
      rendered before; the parser never produces [Raw]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string  (** print-only: splice pre-rendered bytes *)

(** [parse s] parses one JSON value occupying all of [s] (surrounding
    whitespace allowed).  [Error (pos, msg)] carries the 0-based byte
    offset of the failure.

    The parser recurses once per container nesting level; [max_depth]
    (default {!default_max_depth}) bounds that recursion so a hostile
    ["[[[[..."] frame becomes a parse error instead of a stack
    overflow.  {!is_depth_error} recognizes that error's message, so
    the protocol layer can report it under its own diagnostic code. *)
val parse : ?max_depth:int -> string -> (t, int * string) result

(** Default container-nesting cap: 512 levels, far above any legitimate
    request (the deepest real frame nests 6). *)
val default_max_depth : int

(** [is_depth_error msg] is true iff [msg] is the error message
    produced when {!parse} hits its [max_depth]. *)
val is_depth_error : string -> bool

(** [to_string v] prints [v] on one line (no newlines — a printed value
    is always a valid protocol frame body). *)
val to_string : t -> string

(** [to_file path v] writes [to_string v] and a newline to [path].
    @raise Sys_error if [path] cannot be written. *)
val to_file : string -> t -> unit

(** {2 Accessors} — total, returning [None]/defaults on shape
    mismatches, so request validation can collect every problem instead
    of dying on the first. *)

(** [member key v] is the value bound to [key] if [v] is an object
    containing it. *)
val member : string -> t -> t option

val to_int : t -> int option

(** [to_float] accepts both [Int] and [Float]. *)
val to_float : t -> float option

val to_string_opt : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

(** [equal a b] is structural equality after normalizing [Int]/[Float]
    (i.e. [Int 1] equals [Float 1.]).  [Raw] fragments compare by their
    text. *)
val equal : t -> t -> bool
