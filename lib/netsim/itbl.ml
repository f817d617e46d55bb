(* Open-addressing int->int table, linear probing with tombstones.
   Slot states in [keys]: -1 empty, -2 tombstone, >= 0 live key. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int;  (* 63 - log2 (Array.length keys) *)
  mutable live : int;  (* live bindings *)
  mutable used : int;  (* live + tombstones *)
}

let empty_slot = -1
let tombstone = -2

let rec pow2 n c = if c >= n then c else pow2 n (2 * c)

let rec log2 c = if c <= 1 then 0 else 1 + log2 (c lsr 1)
let shift_of cap = 63 - log2 cap

let create ?(capacity = 16) () =
  let cap = pow2 (Int.max 8 capacity) 8 in
  {
    keys = Array.make cap empty_slot;
    vals = Array.make cap 0;
    shift = shift_of cap;
    live = 0;
    used = 0;
  }

let length t = t.live

(* Multiplicative hashing: the slot is the top [log2 m] bits of the
   63-bit product.  The low bits of the product depend only on the low
   bits of the key, and the low bits of a key3 pack are the transport
   attempt, so they must not pick the slot. *)
let hash k shift = (k * 0x2545F4914F6CDD1D) lsr shift

let start_slot t k = hash k t.shift

let rec probe_find keys m k i =
  let ki = keys.(i) in
  if ki = k then i
  else if ki = empty_slot then -1
  else probe_find keys m k ((i + 1) land (m - 1))

let find_slot t k = probe_find t.keys (Array.length t.keys) k (hash k t.shift)

let get t k =
  let i = find_slot t k in
  if i < 0 then -1 else t.vals.(i)

let mem t k = find_slot t k >= 0

(* The probe must run to the key or an empty slot before reusing a
   tombstone: stopping at the first tombstone would duplicate a key
   that lives further down its chain, and the stale copy would
   resurface after a remove. *)
let insert keys vals m k v start =
  (* [free] is the first tombstone passed, or -1 *)
  let rec go i free =
    let ki = keys.(i) in
    if ki = k then begin
      vals.(i) <- v;
      `Replaced
    end
    else if ki = empty_slot then
      if free >= 0 then begin
        keys.(free) <- k;
        vals.(free) <- v;
        `Reused
      end
      else begin
        keys.(i) <- k;
        vals.(i) <- v;
        `Fresh
      end
    else if ki = tombstone && free < 0 then go ((i + 1) land (m - 1)) i
    else go ((i + 1) land (m - 1)) free
  in
  go start (-1)

let rehash t cap =
  let keys = Array.make cap empty_slot in
  let vals = Array.make cap 0 in
  let shift = shift_of cap in
  let old = t.keys and oldv = t.vals in
  for i = 0 to Array.length old - 1 do
    let k = old.(i) in
    if k >= 0 then ignore (insert keys vals cap k oldv.(i) (hash k shift))
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.shift <- shift;
  t.used <- t.live

let set t k v =
  if k < 0 then invalid_arg "Itbl.set: negative key";
  if v < 0 then invalid_arg "Itbl.set: negative value";
  let m = Array.length t.keys in
  if 4 * (t.used + 1) > 3 * m then
    rehash t (if 2 * t.live >= m then 2 * m else m);
  match insert t.keys t.vals (Array.length t.keys) k v (hash k t.shift) with
  | `Replaced -> ()
  | `Reused -> t.live <- t.live + 1
  | `Fresh ->
      t.live <- t.live + 1;
      t.used <- t.used + 1

let remove t k =
  let i = find_slot t k in
  if i >= 0 then begin
    t.keys.(i) <- tombstone;
    t.live <- t.live - 1
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_slot;
  t.live <- 0;
  t.used <- 0

let iter f t =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    if keys.(i) >= 0 then f keys.(i) t.vals.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
