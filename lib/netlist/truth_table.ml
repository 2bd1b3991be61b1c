type t = { arity : int; bits : int64 }

let max_vars = 6

(* All-ones mask over the 2^n table entries. *)
let full_mask n =
  if n = max_vars then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let create n bits =
  if n < 0 || n > max_vars then invalid_arg "Truth_table.create: bad arity";
  { arity = n; bits = Int64.logand bits (full_mask n) }

let of_halves n ~lo ~hi =
  create n
    (Int64.logor
       (Int64.of_int (lo land 0xFFFFFFFF))
       (Int64.shift_left (Int64.of_int hi) 32))

let arity t = t.arity

let low_mask n = if n >= 5 then 0xFFFFFFFF else (1 lsl (1 lsl n)) - 1
let high_mask n = if n = 6 then 0xFFFFFFFF else 0

let bits t = t.bits
let const0 n = create n 0L
let const1 n = create n (full_mask n)

(* Precomputed projection masks: pattern of minterms where input i is 1,
   e.g. i=0 -> 0xAAAA..., i=1 -> 0xCCCC... *)
let var_mask =
  let mask i =
    let block = 1 lsl i in
    let m = ref 0L in
    for b = 0 to 63 do
      if b land block <> 0 then m := Int64.logor !m (Int64.shift_left 1L b)
    done;
    !m
  in
  Array.init max_vars mask

let var i n =
  if i < 0 || i >= n then invalid_arg "Truth_table.var: index out of range";
  create n var_mask.(i)

let eval t m = Int64.logand (Int64.shift_right_logical t.bits m) 1L = 1L

(* Lane-wise evaluation of a column held as native ints: [lo] is bits
   0-31, [hi] bits 32-63 (only arity 6 has any), and input word [i] is
   [values.(fanins.(ofs + i))], so callers evaluate straight out of a
   value table and a flat fanin array.  Arities 0-4 expand the column
   into one all-ones/all-zeros word per minterm and select among them
   with a tree of 2^k - 1 branch-free lane multiplexers (input i picks
   between the halves at level i), ~5*2^k word operations and no
   calls; arities 5 and 6 take a Shannon recursion,
   which folds equal halves without reading the input word.  No
   allocation — the kernel of the simulator. *)

(* Lanes of [w] that are 1 take [b], the others [a]. *)
let[@inline] mux w a b = a lxor (w land (a lxor b))

(* Minterm [j] of the column, broadcast to every lane. *)
let[@inline] minterm bits j = -((bits lsr j) land 1)

let rec shannon values fanins ofs bits n =
  if n = 0 then minterm bits 0
  else begin
    let lo = shannon values fanins ofs bits (n - 1) in
    let hi = shannon values fanins ofs (bits lsr (1 lsl (n - 1))) (n - 1) in
    if lo = hi then lo
    else mux values.(fanins.(ofs + n - 1)) lo hi
  end

(* Input word [i] of the node whose fanins start at [ofs]. *)
let[@inline] word (values : int array) (fanins : int array) ofs i =
  values.(fanins.(ofs + i))

(* Multiplexer trees over the low 2^k minterms of [b]: input k - 1
   selects between the trees of the two halves. *)
let[@inline] tree1 w0 b = mux w0 (minterm b 0) (minterm b 1)
let[@inline] tree2 w0 w1 b = mux w1 (tree1 w0 b) (tree1 w0 (b lsr 2))
let[@inline] tree3 w0 w1 w2 b = mux w2 (tree2 w0 w1 b) (tree2 w0 w1 (b lsr 4))

let[@inline] tree4 w0 w1 w2 w3 b =
  mux w3 (tree3 w0 w1 w2 b) (tree3 w0 w1 w2 (b lsr 8))

let eval_column_words ~arity ~lo ~hi values fanins ofs =
  match arity with
  | 0 -> minterm lo 0
  | 1 -> tree1 (word values fanins ofs 0) lo
  | 2 -> tree2 (word values fanins ofs 0) (word values fanins ofs 1) lo
  | 3 ->
      tree3 (word values fanins ofs 0) (word values fanins ofs 1)
        (word values fanins ofs 2) lo
  | 4 ->
      tree4 (word values fanins ofs 0) (word values fanins ofs 1)
        (word values fanins ofs 2) (word values fanins ofs 3) lo
  | 5 -> shannon values fanins ofs lo 5
  | _ ->
      let l = shannon values fanins ofs lo 5
      and h = shannon values fanins ofs hi 5 in
      if l = h then l else mux (word values fanins ofs 5) l h

(* 2^6 table bits do not fit a 63-bit native int: the column travels
   as its two 32-bit halves. *)
let[@inline] low_half t = Int64.to_int (Int64.logand t.bits 0xFFFFFFFFL)
let[@inline] high_half t = Int64.to_int (Int64.shift_right_logical t.bits 32)

type cache = t array

let cache () = Array.make 64 { arity = -1; bits = 0L }

let cached c n ~lo ~hi =
  let lo = lo land low_mask n and hi = hi land high_mask n in
  let i = (n + (lo * 0x9E3779B1) + (hi * 0x85EBCA77)) lsr 7 land 63 in
  let t = Array.unsafe_get c i in
  if
    t.arity = n
    && low_half t = lo
    && high_half t = hi
  then t
  else begin
    let t = of_halves n ~lo ~hi in
    Array.unsafe_set c i t;
    t
  end

let eval_words_at t values fanins =
  if Array.length fanins <> t.arity then
    invalid_arg "Truth_table.eval_words_at: wrong number of fanins";
  eval_column_words ~arity:t.arity ~lo:(low_half t) ~hi:(high_half t) values
    fanins 0

(* Input [i] reads [ws.(i)]. *)
let identity = Array.init max_vars Fun.id

let eval_words t ws =
  if Array.length ws <> t.arity then
    invalid_arg "Truth_table.eval_words: wrong number of input words";
  eval_column_words ~arity:t.arity ~lo:(low_half t) ~hi:(high_half t) ws
    identity 0

let not_ t = create t.arity (Int64.lognot t.bits)

let binop name f a b =
  if a.arity <> b.arity then
    invalid_arg (Printf.sprintf "Truth_table.%s: arity mismatch" name);
  create a.arity (f a.bits b.bits)

let and_ a b = binop "and_" Int64.logand a b
let or_ a b = binop "or_" Int64.logor a b
let xor a b = binop "xor" Int64.logxor a b

let cofactor t i b =
  if i < 0 || i >= t.arity then invalid_arg "Truth_table.cofactor: bad index";
  let block = 1 lsl i in
  (* Select the half of each 2*block-wide stripe where input i = b, and
     duplicate it into the other half so arity is preserved. *)
  let keep = if b then Int64.logand t.bits var_mask.(i)
             else Int64.logand t.bits (Int64.lognot var_mask.(i)) in
  let dup =
    if b then Int64.logor keep (Int64.shift_right_logical keep block)
    else Int64.logor keep (Int64.shift_left keep block)
  in
  create t.arity dup

let boolean_difference t i = xor (cofactor t i true) (cofactor t i false)

(* The low 32 bits of each projection mask: for inputs 0-4 the pattern
   repeats in both halves of the column. *)
let var_mask_half =
  Array.map (fun m -> Int64.to_int (Int64.logand m 0xFFFFFFFFL)) var_mask

(* [f] depends on input [i] iff its minterms with [x_i = 1], shifted
   onto those with [x_i = 0], differ from them.  Tested on the column's
   two 32-bit halves as native ints, so no table is built: a stripe of
   inputs 0-4 lies within one half, and input 5 selects between the
   halves. *)
let depends_on t i =
  if i < 0 || i >= t.arity then invalid_arg "Truth_table.depends_on: bad index";
  let lo = low_half t and hi = high_half t in
  if i = 5 then lo <> hi
  else begin
    let m = var_mask_half.(i) and block = 1 lsl i in
    let rest = m lxor 0xFFFFFFFF in
    (lo land m) lsr block <> lo land rest || (hi land m) lsr block <> hi land rest
  end

let support t =
  let rec loop i acc =
    if i < 0 then acc else loop (i - 1) (if depends_on t i then i :: acc else acc)
  in
  loop (t.arity - 1) []

let support_size t =
  let n = ref 0 in
  for i = 0 to t.arity - 1 do
    if depends_on t i then incr n
  done;
  !n

let count_ones t =
  Hlp_util.Bits.popcount (low_half t) + Hlp_util.Bits.popcount (high_half t)

let compose t args =
  if Array.length args <> t.arity then
    invalid_arg "Truth_table.compose: wrong number of arguments";
  let m = if Array.length args = 0 then 0 else args.(0).arity in
  Array.iter
    (fun a ->
      if a.arity <> m then
        invalid_arg "Truth_table.compose: argument arity mismatch")
    args;
  let out = ref 0L in
  for mt = 0 to (1 lsl m) - 1 do
    let inner = ref 0 in
    for i = 0 to t.arity - 1 do
      if eval args.(i) mt then inner := !inner lor (1 lsl i)
    done;
    if eval t !inner then out := Int64.logor !out (Int64.shift_left 1L mt)
  done;
  create m !out

let equal a b = a.arity = b.arity && Int64.equal a.bits b.bits

let to_string t =
  String.init (1 lsl t.arity) (fun k ->
      if eval t ((1 lsl t.arity) - 1 - k) then '1' else '0')

let pp fmt t = Format.fprintf fmt "%d'%s" t.arity (to_string t)
