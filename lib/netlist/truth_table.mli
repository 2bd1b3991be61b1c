(** Truth tables for Boolean functions of up to 6 variables.

    A function of [n <= 6] inputs is stored as the [2^n]-entry column of its
    truth table, packed into an [int64] bitmask: bit [m] holds [f(m)], where
    minterm [m] encodes input [i] in bit [i].  This is the representation
    used for every logic node in a netlist and for every LUT produced by the
    technology mapper, and it is what the switching-activity estimators
    evaluate (signal probability, Boolean difference, the Chou-Roy two-time
    joint model).

    The limit of 6 variables matches the largest LUT size any of our mapping
    experiments use (Cyclone II is K = 4; the ablation goes to K = 6). *)

type t

(** Maximum supported number of variables. *)
val max_vars : int

(** [create n bits] builds a table of [n] inputs from the raw mask [bits];
    bits above position [2^n - 1] are ignored.
    @raise Invalid_argument if [n < 0 || n > max_vars]. *)
val create : int -> int64 -> t

(** [arity t] is the number of input variables. *)
val arity : t -> int

(** [bits t] is the raw (masked) truth-table column. *)
val bits : t -> int64

(** Constant false of arity [n]. *)
val const0 : int -> t

(** Constant true of arity [n]. *)
val const1 : int -> t

(** [var i n] is the projection on input [i] among [n] inputs. *)
val var : int -> int -> t

(** [eval t m] is [f(m)] for minterm [m] (input [i] in bit [i]). *)
val eval : t -> int -> bool

(** [eval_words t ws] evaluates [f] lane-wise over machine words: bit
    [l] of the result is [f] applied to bit [l] of each input word
    [ws.(i)].  Equivalent to [Sys.int_size] calls of {!eval}, computed
    by {!eval_column_words}.  A 0-arity table broadcasts its constant
    to every lane.
    @raise Invalid_argument if [Array.length ws <> arity t]. *)
val eval_words : t -> int array -> int

(** [eval_words_at t values fanins] is
    [eval_words t [|values.(fanins.(0)); ...|]] without materializing
    the intermediate array.
    @raise Invalid_argument if [Array.length fanins <> arity t]. *)
val eval_words_at : t -> int array -> int array -> int

(** [column_halves t] is [t]'s column as two native ints: bits 0-31 and
    bits 32-63 (zero below arity 6).  A 2^6-bit column does not fit one
    63-bit int. *)
val column_halves : t -> int * int

(** [low_half t] is [fst (column_halves t)], without building the
    pair. *)
val low_half : t -> int

(** [high_half t] is [snd (column_halves t)], without building the
    pair. *)
val high_half : t -> int

(** [eval_column_words ~arity ~lo ~hi values fanins ofs] evaluates, lane
    by lane, the [arity]-input table whose {!column_halves} are
    [(lo, hi)], input word [i] being [values.(fanins.(ofs + i))] — the
    simulator's kernel, reading a node's fanins out of one flat array.
    Arities 0-4 select among broadcast minterms with a tree of
    2^k - 1 branch-free lane multiplexers (~5*2^k word operations); 5
    and 6 use a Shannon recursion; nothing is allocated.  [arity] must be in
    [0, 6].
    @raise Invalid_argument if an input index is out of bounds. *)
val eval_column_words :
  arity:int -> lo:int -> hi:int -> int array -> int array -> int -> int

(** Pointwise negation. *)
val not_ : t -> t

(** Pointwise conjunction / disjunction / exclusive-or of same-arity
    tables. @raise Invalid_argument on arity mismatch. *)
val and_ : t -> t -> t

val or_ : t -> t -> t
val xor : t -> t -> t

(** [cofactor t i b] is [f] with input [i] fixed to [b], arity preserved
    (the result no longer depends on input [i]). *)
val cofactor : t -> int -> bool -> t

(** [boolean_difference t i] is [f|x_i=1 xor f|x_i=0] — true for the input
    combinations at which a transition of input [i] flips the output.  This
    is the kernel of Najm's transition-density propagation (Eq. 1 of the
    paper). *)
val boolean_difference : t -> int -> t

(** [depends_on t i] holds iff the function is sensitive to input [i]
    (allocates nothing).
    @raise Invalid_argument if [i] is not an input. *)
val depends_on : t -> int -> bool

(** [support t] is the list of input indices the function depends on. *)
val support : t -> int list

(** [support_size t] is [List.length (support t)], counted without
    allocating. *)
val support_size : t -> int

(** [count_ones t] is the number of satisfying minterms. *)
val count_ones : t -> int

(** [compose t args] substitutes [args.(i)] (all of common arity [m]) for
    input [i] of [t], yielding a table of arity [m].  Used to collapse the
    logic cone of a K-feasible cut into a single LUT function.
    @raise Invalid_argument if [Array.length args <> arity t] or argument
    arities differ. *)
val compose : t -> t array -> t

(** [equal a b] is structural equality (same arity and same column). *)
val equal : t -> t -> bool

(** [to_string t] prints the column MSB-first, e.g. ["0110"] for XOR2. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
