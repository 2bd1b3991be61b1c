module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table

(* One flat store of 32-bit ints (node ids and leaf offsets fit).  Cut
   [c]'s leaves are [leaves] from [off.(c)] to [off.(c + 1) - 1], sorted
   and distinct.  Node [id]'s cuts are [first.(id)] to [stop.(id) - 1].
   A logic node's region starts with its trivial cut, followed by its
   kept cuts; the cuts its fanouts combine are the first [max_cuts] of
   the kept cuts and the trivial cut in (size, leaves) order: from
   [first.(id) - 1] up to [min stop.(id) (first.(id) - 1 + max_cuts)]
   when [lead.[id]] is set, the node's own cuts otherwise (see
   [push_node]).  The vectors are sized for about 2.5 cuts and [k + 2]
   leaves per node and grow by half with the cuts kept: at K = 4 the 21
   flow-mix netlists and the 168 SA cells keep 2.1 cuts and 4.7 leaves
   per node on average, at most 2.9 and 7.4 in one netlist. *)
type store = {
  k : int;
  max_cuts : int;
  mutable leaves : Bytes.t;
  mutable n_leaves : int;
  mutable off : Bytes.t;
  mutable n_cuts : int;
  first : Bytes.t;
  stop : Bytes.t;
  lead : Bytes.t;  (* '\001': the fanout set leads with the trivial cut *)
  (* [cone_function]'s buffers: the leaves, then the cone's nodes in
     post-order, in the first [used] slots *)
  mutable slots : int array;
  mutable used : int;
  mutable lo : int array;
  mutable hi : int array;
  fanins : int array;
  (* the last [cone_table]'s halves *)
  mutable table_lo : int;
  mutable table_hi : int;
}

let[@inline] get32 b i = Int32.to_int (Bytes.get_int32_le b (4 * i))
let[@inline] set32 b i v = Bytes.set_int32_le b (4 * i) (Int32.of_int v)

(* [b] with room for [n] 32-bit ints, grown by half if it has not. *)
let grow32 b n =
  if 4 * n <= Bytes.length b then b
  else begin
    let b' = Bytes.make (max (4 * n) (Bytes.length b * 3 / 2)) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end

let first s id = get32 s.first id
let stop s id = get32 s.stop id
let size s c = get32 s.off (c + 1) - get32 s.off c
let leaf s c i = get32 s.leaves (get32 s.off c + i)
let leaves s c =
  let a = Array.make (size s c) 0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- leaf s c i
  done;
  a

(* A leaf's bit in a cut's signature; leaves 64 apart share one, and
   those with [l land 63 = 63] have none (the bit shifts out), so a
   signature never has more bits than its cut has leaves. *)
let[@inline] bit l = 1 lsl (l land 63)

(* Whether [sig] has more than [k] bits set: then a cut with that
   signature has more than [k] leaves. *)
let[@inline] too_wide k sig_ =
  let x = ref sig_ and c = ref 0 in
  while !x <> 0 && !c <= k do
    x := !x land (!x - 1);
    incr c
  done;
  !c > k

let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Append a cut whose [m] leaves are [src.(pos)] onward. *)
let push_cut s src pos m =
  s.leaves <- grow32 s.leaves (s.n_leaves + m);
  s.off <- grow32 s.off (s.n_cuts + 2);
  for i = 0 to m - 1 do
    set32 s.leaves (s.n_leaves + i) src.(pos + i)
  done;
  s.n_leaves <- s.n_leaves + m;
  s.n_cuts <- s.n_cuts + 1;
  set32 s.off s.n_cuts s.n_leaves

(* Candidate cuts of the node being enumerated, [k] leaf slots each
   ([cand] from [j * k]), with their sizes and signatures; [order]
   holds the distinct candidates of the current generation in (size,
   leaves) order. *)
type work = {
  mutable cand : int array;
  mutable csize : int array;
  mutable csig : int array;
  mutable order : int array;
  mutable bsig : int array;  (* signatures of a fanin's fanout set *)
  one : int array;  (* the trivial cut's leaf *)
}

(* (size, leaves) order of candidates [a] and [b], as polymorphic
   [compare] orders the leaf arrays. *)
let compare_cand k w a b =
  let c = compare w.csize.(a) w.csize.(b) in
  if c <> 0 then c
  else begin
    let m = w.csize.(a) and i = ref 0 and c = ref 0 in
    while !c = 0 && !i < m do
      c := compare w.cand.((a * k) + !i) w.cand.((b * k) + !i);
      incr i
    done;
    !c
  end

(* Whether candidate [a]'s leaves are a subset of candidate [b]'s. *)
let subset k w a b =
  let la = w.csize.(a) and lb = w.csize.(b) in
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !i < la do
    if !j = lb then ok := false
    else begin
      let x = w.cand.((a * k) + !i) and y = w.cand.((b * k) + !j) in
      if x = y then (incr i; incr j)
      else if x > y then incr j
      else ok := false
    end
  done;
  la <= lb && !ok

(* Merge candidate [p] with store cut [c] into candidate slot [dst]:
   the size of the union, or -1 past [k] leaves. *)
let merge_into s w p c dst =
  let k = s.k and cand = w.cand and leaves = s.leaves in
  let la = w.csize.(p) and pa = p * k in
  let lb = size s c and pb = get32 s.off c in
  let out = dst * k in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !n <= k && (!i < la || !j < lb) do
    if !n = k then n := k + 1
    else begin
      (* [max_int] past either end: no node has that id. *)
      let a = if !i < la then cand.(pa + !i) else max_int
      and b = if !j < lb then get32 leaves (pb + !j) else max_int in
      let x = if a <= b then a else b in
      if a = x then incr i;
      if b = x then incr j;
      cand.(out + !n) <- x;
      incr n
    end
  done;
  if !n > k then -1 else !n

(* Insert candidate [c] into [order.(lo .. hi - 1)] unless an equal one
   is there: the new end of the generation. *)
let insert k w lo hi c =
  let a = ref lo and b = ref hi and dup = ref false in
  while (not !dup) && !a < !b do
    let mid = (!a + !b) / 2 in
    let r = compare_cand k w w.order.(mid) c in
    if r < 0 then a := mid + 1 else if r > 0 then b := mid else dup := true
  done;
  if !dup then hi
  else begin
    w.order <- grow w.order (hi + 1) 0;
    Array.blit w.order !a w.order (!a + 1) (hi - !a);
    w.order.(!a) <- c;
    hi + 1
  end

let ensure_cand s w n =
  if n > Array.length w.csize then begin
    w.cand <- grow w.cand (n * s.k) 0;
    w.csize <- grow w.csize n 0;
    w.csig <- grow w.csig n 0
  end

(* Every distinct K-feasible union of one fanout-set cut per fanin, in
   (size, leaves) order: [order.(0 .. result - 1)].  Each generation
   merges the previous one's candidates with the next fanin's cuts,
   rejecting a union too wide by its signature before building it. *)
let combine s w fanins =
  let k = s.k in
  ensure_cand s w 1;
  w.csize.(0) <- 0;
  w.csig.(0) <- 0;
  w.order <- grow w.order 1 0;
  w.order.(0) <- 0;
  let gen_hi = ref 1 and next = ref 1 in
  for fi = 0 to Array.length fanins - 1 do
    let f = fanins.(fi) in
    let b_first, b_stop =
      if Bytes.get s.lead f = '\000' then (first s f, stop s f)
      else (first s f - 1, min (stop s f) (first s f - 1 + s.max_cuts))
    in
    w.bsig <- grow w.bsig (b_stop - b_first) 0;
    for c = b_first to b_stop - 1 do
      let sig_ = ref 0 in
      for i = 0 to size s c - 1 do
        sig_ := !sig_ lor bit (leaf s c i)
      done;
      w.bsig.(c - b_first) <- !sig_
    done;
    let hi = ref !gen_hi in
    for a = 0 to !gen_hi - 1 do
      let p = w.order.(a) in
      for c = b_first to b_stop - 1 do
        let sig_ = w.csig.(p) lor w.bsig.(c - b_first) in
        if not (too_wide k sig_) then begin
          ensure_cand s w (!next + 1);
          let m = merge_into s w p c !next in
          if m >= 0 then begin
            w.csize.(!next) <- m;
            w.csig.(!next) <- sig_;
            let hi' = insert k w !gen_hi !hi !next in
            if hi' > !hi then begin
              hi := hi';
              incr next
            end
          end
        end
      done
    done;
    (* The new generation moves to the front of [order]. *)
    let len = !hi - !gen_hi in
    Array.blit w.order !gen_hi w.order 0 len;
    gen_hi := len
  done;
  !gen_hi

(* Store node [id]'s kept cuts: the first [max_cuts] candidates in
   [order] that no earlier kept one is a subset of, after the trivial
   cut [{id}].  The fanout set is the first [max_cuts] of the kept cuts
   and [{id}] in (size, leaves) order, except that an empty kept cut
   dominates [{id}].  [{id}] sorts after the kept cuts of size 0 or of
   one smaller leaf, so it is cut off only when [max_cuts] kept cuts
   all sort before it; otherwise the set is [{id}] and the first
   [max_cuts - 1] kept cuts. *)
let push_node s w id count =
  let k = s.k in
  let lo = s.n_cuts in
  w.one.(0) <- id;
  push_cut s w.one 0 1;
  let kept = ref 0 and before = ref 0 and empty = ref false in
  let i = ref 0 in
  while !kept < s.max_cuts && !i < count do
    let c = w.order.(!i) in
    let dominated = ref false and d = ref 0 in
    while (not !dominated) && !d < !kept do
      let e = w.order.(!d) in
      if w.csig.(e) land lnot w.csig.(c) = 0 && subset k w e c then
        dominated := true;
      incr d
    done;
    if not !dominated then begin
      (* Kept cuts are compacted to the front of [order]. *)
      w.order.(!kept) <- c;
      incr kept;
      let m = w.csize.(c) in
      if m = 0 then empty := true;
      if m = 0 || (m = 1 && w.cand.(c * k) < id) then incr before;
      push_cut s w.cand (c * k) m
    end;
    incr i
  done;
  set32 s.first id (lo + 1);
  set32 s.stop id (lo + 1 + !kept);
  if not (!empty || !before >= s.max_cuts) then Bytes.set s.lead id '\001'

let is_terminal t id =
  Nl.is_input t id
  || Array.length (Nl.node t id).Nl.fanins = 0

let enumerate t ~k ~max_cuts =
  if k < 2 || k > Tt.max_vars then invalid_arg "Cut.enumerate: bad k";
  if max_cuts < 1 then invalid_arg "Cut.enumerate: bad max_cuts";
  let n = Nl.num_nodes t in
  let s =
    {
      k;
      max_cuts;
      leaves = Bytes.make (4 * (((k + 2) * n) + 16)) '\000';
      n_leaves = 0;
      off = Bytes.make (4 * ((5 * n / 2) + 16)) '\000';
      n_cuts = 0;
      first = Bytes.make (4 * n) '\000';
      stop = Bytes.make (4 * n) '\000';
      lead = Bytes.make n '\000';
      slots = Array.make 16 0;
      used = 0;
      lo = Array.make 16 0;
      hi = Array.make 16 0;
      fanins = Array.make Tt.max_vars 0;
      table_lo = 0;
      table_hi = 0;
    }
  in
  let w =
    {
      cand = Array.make (64 * k) 0;
      csize = Array.make 64 0;
      csig = Array.make 64 0;
      order = Array.make 64 0;
      bsig = Array.make 16 0;
      one = [| 0 |];
    }
  in
  Array.iter
    (fun id ->
      if is_terminal t id then begin
        (* An input's cut is trivial; a constant's is empty, so it
           folds into its fanouts' cones. *)
        let lo = s.n_cuts in
        if Nl.is_input t id then begin
          w.one.(0) <- id;
          push_cut s w.one 0 1
        end
        else push_cut s w.one 0 0;
        set32 s.first id lo;
        set32 s.stop id (lo + 1)
      end
      else push_node s w id (combine s w (Nl.node t id).Nl.fanins))
    (Nl.topo_order t);
  s

(* Leaf [i]'s value on each of the 32 minterms of five inputs: lane
   [j] holds bit [i] of [j]. *)
let lane_var = function
  | 0 -> 0xAAAAAAAA
  | 1 -> 0xCCCCCCCC
  | 2 -> 0xF0F0F0F0
  | 3 -> 0xFF00FF00
  | _ -> 0xFFFF0000

(* The cone is evaluated bit-parallel, one lane per leaf minterm.  Slot
   [i] holds leaf [i]; the cone's nodes follow in post-order, so a
   node's fanins sit in earlier slots.  Six leaves have 64 minterms, one
   more than a native int holds: [lo] evaluates the 32 with leaf 5 at
   0, [hi] the 32 with leaf 5 at 1.  The buffers are the store's. *)
(* The slot holding node [id], or -1. *)
let slot s id =
  let i = ref 0 in
  while !i < s.used && s.slots.(!i) <> id do incr i done;
  if !i < s.used then !i else -1

(* Give [id] and the cone nodes below it slots, fanins first. *)
let rec visit s t id =
  if slot s id < 0 then begin
    if Nl.is_input t id then
      invalid_arg "Cut.cone_function: cut does not cover node";
    let fanins = (Nl.node t id).Nl.fanins in
    for i = 0 to Array.length fanins - 1 do
      visit s t fanins.(i)
    done;
    s.slots <- grow s.slots (s.used + 1) 0;
    s.slots.(s.used) <- id;
    s.used <- s.used + 1
  end

let cone_table s t root c =
  let m = size s c in
  s.slots <- grow s.slots m 0;
  for i = 0 to m - 1 do
    s.slots.(i) <- leaf s c i
  done;
  s.used <- m;
  visit s t root;
  s.lo <- grow s.lo s.used 0;
  s.hi <- grow s.hi s.used 0;
  let lo = s.lo and hi = s.hi and fanins = s.fanins in
  for i = 0 to min m 5 - 1 do
    lo.(i) <- lane_var i;
    hi.(i) <- lane_var i
  done;
  if m = 6 then begin
    lo.(5) <- 0;
    hi.(5) <- -1
  end;
  for j = m to s.used - 1 do
    let node = Nl.node t s.slots.(j) in
    let arity = Tt.arity node.Nl.func in
    for i = 0 to arity - 1 do
      fanins.(i) <- slot s node.Nl.fanins.(i)
    done;
    let tlo = Tt.low_half node.Nl.func and thi = Tt.high_half node.Nl.func in
    lo.(j) <- Tt.eval_column_words ~arity ~lo:tlo ~hi:thi lo fanins 0;
    if m = 6 then
      hi.(j) <- Tt.eval_column_words ~arity ~lo:tlo ~hi:thi hi fanins 0
  done;
  (* The root took the last slot; the halves are masked to the table's
     2^m minterms, as {!Tt.create} masks them. *)
  let r = s.used - 1 in
  s.table_lo <- lo.(r) land Tt.low_mask m;
  s.table_hi <- hi.(r) land Tt.high_mask m

let table_lo s = s.table_lo
let table_hi s = s.table_hi

let cone_function s t root c =
  cone_table s t root c;
  Tt.of_halves (size s c) ~lo:s.table_lo ~hi:s.table_hi
