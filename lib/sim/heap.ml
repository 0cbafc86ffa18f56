(* 4-ary min-heap on parallel int arrays with slot-indirected values.

   This is the event queue of the simulation engine; a full-scale run
   performs tens of millions of push/pop cycles, so the layout is chosen
   to make those cycles cheap:

   - keys, sequence numbers and value-slot ids live in flat [int] arrays:
     the sift loops move only immediates, which compiles to plain stores —
     no write barrier ([caml_modify]) anywhere in the loop;
   - values sit still in a side [slots] table (one barriered store on
     push, one on pop), indexed by the slot id carried through the heap;
   - sifting is hole-based (carry the moving entry, write it once at its
     final position), tail-recursive with all state in parameters (no
     closure or ref cell allocation — the build is not flambda), and uses
     unchecked array access; indices are bounded by [size] by
     construction;
   - the heap is 4-ary: half the levels of a binary heap, and the four
     children of a node sit in adjacent (usually same-cache-line) words
     of the flat int arrays. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable pos_slot : int array;  (* heap position -> slot id *)
  mutable slots : 'a array;  (* slot id -> value; length 0 until first push *)
  mutable free : int array;  (* stack of free slot ids *)
  mutable n_free : int;
  mutable size : int;
  mutable high_water : int;  (* max [size] ever reached; survives [clear] *)
}

let default_capacity = 16

let create ?(capacity = default_capacity) () =
  let capacity = Stdlib.max 1 capacity in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    pos_slot = Array.make capacity 0;
    slots = [||];
    free = Array.init capacity (fun i -> i);
    n_free = capacity;
    size = 0;
    high_water = 0;
  }

let length t = t.size
let is_empty t = t.size = 0
let high_water t = t.high_water

let grow t v =
  let cap = Array.length t.keys in
  if Array.length t.slots = 0 then t.slots <- Array.make cap v
  else begin
    let ncap = cap * 2 in
    let nk = Array.make ncap 0 and ns = Array.make ncap 0 in
    let np = Array.make ncap 0 in
    let nv = Array.make ncap t.slots.(0) in
    let nf = Array.make ncap 0 in
    Array.blit t.keys 0 nk 0 t.size;
    Array.blit t.seqs 0 ns 0 t.size;
    Array.blit t.pos_slot 0 np 0 t.size;
    Array.blit t.slots 0 nv 0 cap;
    (* All slot ids below [cap] are in use (the heap was full); the new
       upper half provides the fresh free slots. *)
    for i = 0 to cap - 1 do
      nf.(i) <- cap + i
    done;
    t.keys <- nk;
    t.seqs <- ns;
    t.pos_slot <- np;
    t.slots <- nv;
    t.free <- nf;
    t.n_free <- cap
  end

let push t ~key ~seq value =
  if t.size = Array.length t.slots then grow t value;
  (* Park the value in a free slot; only its id travels through the heap. *)
  t.n_free <- t.n_free - 1;
  let sid = Array.unsafe_get t.free t.n_free in
  Array.unsafe_set t.slots sid value;
  let keys = t.keys and seqs = t.seqs and pos_slot = t.pos_slot in
  (* Sift the hole up, then write the new entry once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  if t.size > t.high_water then t.high_water <- t.size;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pk = Array.unsafe_get keys parent in
    if key < pk || (key = pk && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set pos_slot !i (Array.unsafe_get pos_slot parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set pos_slot !i sid

let top_key t = t.keys.(0)

let drop_top t =
  let n = t.size - 1 in
  t.size <- n;
  let sid0 = t.pos_slot.(0) in
  Array.unsafe_set t.free t.n_free sid0;
  t.n_free <- t.n_free + 1;
  if n > 0 then begin
    let keys = t.keys and seqs = t.seqs and pos_slot = t.pos_slot in
    (* Detach the last entry, sift the root hole down along smallest
       children, drop it back in. *)
    let key = Array.unsafe_get keys n in
    let seq = Array.unsafe_get seqs n in
    let ps = Array.unsafe_get pos_slot n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (4 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let hi = l + 3 in
        let hi = if hi < n then hi else n - 1 in
        (* Smallest of the up-to-four children, via an immutable chain of
           scalars — no calls, no allocation. *)
        let c = l in
        let ck = Array.unsafe_get keys c in
        let j = l + 1 in
        let t2 =
          j <= hi
          && (let kj = Array.unsafe_get keys j in
              kj < ck
              || (kj = ck && Array.unsafe_get seqs j < Array.unsafe_get seqs c))
        in
        let c = if t2 then j else c in
        let ck = if t2 then Array.unsafe_get keys j else ck in
        let j = l + 2 in
        let t3 =
          j <= hi
          && (let kj = Array.unsafe_get keys j in
              kj < ck
              || (kj = ck && Array.unsafe_get seqs j < Array.unsafe_get seqs c))
        in
        let c = if t3 then j else c in
        let ck = if t3 then Array.unsafe_get keys j else ck in
        let j = l + 3 in
        let t4 =
          j <= hi
          && (let kj = Array.unsafe_get keys j in
              kj < ck
              || (kj = ck && Array.unsafe_get seqs j < Array.unsafe_get seqs c))
        in
        let c = if t4 then j else c in
        let ck = if t4 then Array.unsafe_get keys j else ck in
        if ck < key || (ck = key && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set keys !i ck;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set pos_slot !i (Array.unsafe_get pos_slot c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set pos_slot !i ps;
    (* Drop the freed slot's stale reference by aliasing it to a live
       entry, so popped values can't leak via the slot table. *)
    Array.unsafe_set t.slots sid0
      (Array.unsafe_get t.slots (Array.unsafe_get pos_slot 0))
  end

(* The engine's per-event pop: read the minimum's value, then remove it. *)
let pop_top t =
  let v = t.slots.(t.pos_slot.(0)) in
  drop_top t;
  v

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and seq = t.seqs.(0) in
    Some (key, seq, pop_top t)
  end

let peek_key t = if t.size = 0 then None else Some t.keys.(0)

let clear t =
  (* Keep the backing arrays: a cleared heap that is refilled must not
     re-pay the growth sequence. References in [slots] are collapsed onto
     a single surviving value; free every slot id. *)
  let cap = Array.length t.keys in
  if Array.length t.slots > 0 then
    Array.fill t.slots 0 (Array.length t.slots) t.slots.(0);
  for i = 0 to cap - 1 do
    t.free.(i) <- i
  done;
  t.n_free <- cap;
  t.size <- 0
