(** Combinational gate-level netlists.

    A netlist is a DAG of logic nodes; each node computes a truth-table
    function of its fanins.  Primary inputs are nodes without fanins.
    Netlists are produced by {!Cell_library} (elaborated datapath cells),
    consumed by the activity estimators ({!Hlp_activity}), the technology
    mapper ({!Hlp_mapper}), and the gate/LUT simulator, and serialized to
    and from BLIF ({!Blif}).

    Construction goes through a mutable {!builder}; the [add_*] functions
    only accept already-created node ids, so a frozen netlist is acyclic by
    construction and its node array is a valid topological order. *)

type node_id = int

type node = {
  id : node_id;
  name : string;
  func : Truth_table.t;  (** local function over [fanins]; arity matches *)
  fanins : node_id array;
}

type t

(** {1 Building} *)

type builder

(** [create_builder ~name] starts an empty netlist called [name]. *)
val create_builder : name:string -> builder

(** [create_builder_sized ~name ~nodes] is [create_builder ~name] with
    room for [nodes] nodes: when the netlist ends with exactly that many,
    its node array is the one allocated here.  It grows past them. *)
val create_builder_sized : name:string -> nodes:int -> builder

(** [add_input b name] declares a primary input and returns its id. *)
val add_input : builder -> string -> node_id

(** [add_node b ~name ~func ~fanins] adds a logic node computing [func] over
    [fanins].
    @raise Invalid_argument if arity and fanin count differ, or a fanin id
    is unknown. *)
val add_node :
  builder -> name:string -> func:Truth_table.t -> fanins:node_id array ->
  node_id

(** [add_const b v] adds a 0-input constant node. *)
val add_const : builder -> bool -> node_id

(** [mark_output b name id] declares node [id] as primary output [name].
    The same node may drive several outputs. *)
val mark_output : builder -> string -> node_id -> unit

(** [freeze b] finalizes the netlist. The builder must not be reused.
    @raise Invalid_argument if no output was marked. *)
val freeze : builder -> t

(** {1 Observation} *)

val name : t -> string

(** [node n id] is the node record for [id]. *)
val node : t -> node_id -> node

(** [num_nodes t] counts all nodes, inputs included. *)
val num_nodes : t -> int

(** [inputs t] is the primary-input ids in declaration order. *)
val inputs : t -> node_id array

(** [outputs t] is the (name, driver id) list in declaration order. *)
val outputs : t -> (string * node_id) list

(** [is_input t id] holds for primary inputs. *)
val is_input : t -> node_id -> bool

(** [topo_order t] is a topological order of all node ids (inputs first by
    construction). *)
val topo_order : t -> node_id array

(** [fanouts t] is, per node, the ids of the nodes reading it. *)
val fanouts : t -> node_id array array

(** [fanout_counts t] is, per node, the length of its [fanouts] entry. *)
val fanout_counts : t -> int array

(** [depth t] is per-node logic depth: 0 for inputs and constants, else
    1 + max over fanins. *)
val depth : t -> int array

(** [max_depth t] is the largest node depth (0 for a constant netlist). *)
val max_depth : t -> int

(** [num_logic_nodes t] counts non-input nodes with at least one fanin. *)
val num_logic_nodes : t -> int

(** [eval t assignment] evaluates all nodes given per-input boolean values
    (indexed like [inputs t]); returns a value per node id.  Reference
    semantics for the simulators and property tests. *)
val eval : t -> bool array -> bool array

(** [eval_words t assignment] is the bit-parallel {!eval}: each input
    word packs one boolean per lane (bit position), and the result holds
    one word per node id whose lane [l] equals [eval]'s value for the
    assignment formed by lane [l] of every input.  Lanes are independent;
    inactive lanes simply compute the network's response to whatever
    bits they carry.  See {!Hlp_util.Bits} for the lane conventions.
    @raise Invalid_argument on an assignment length mismatch. *)
val eval_words : t -> int array -> int array

(** [eval_words_into t assignment values] is [eval_words t assignment]
    written into [values], one word per node id.
    @raise Invalid_argument on an assignment or value length mismatch. *)
val eval_words_into : t -> int array -> int array -> unit

(** [output_values t assignment] is [eval] restricted to declared outputs,
    in declaration order. *)
val output_values : t -> bool array -> (string * bool) list

(** [validate t] re-checks structural invariants (fanins precede nodes,
    arities match); @raise Failure with a diagnostic if violated.  Intended
    for tests. *)
val validate : t -> unit
