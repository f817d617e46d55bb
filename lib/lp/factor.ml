(* Sparse LU with Forrest-Tomlin updates: B = L U, row permutation
   implicit via porder/pos_of.  See factor.mli for the contract. *)

module A1 = Bigarray.Array1

type pool = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let pool_create n : pool = A1.create Bigarray.float64 Bigarray.c_layout n

type t = {
  m : int;
  (* ---- L: column etas from factorize, applied in creation order.
     Eta s scatters multipliers off pivot row lr.(s); the pivot entry
     itself is untouched (unit diagonal, multipliers pre-divided). *)
  mutable n_l : int;
  lr : int array;  (* length m *)
  lstart : int array;  (* length m + 1 *)
  mutable lidx : int array;
  mutable lpool : pool;
  mutable lnnz : int;
  (* ---- U: one column per elimination position.  Position p pivots
     row porder.(p) with diagonal udiag.(p); off-diagonal entries sit
     at rows pivoted by earlier positions. *)
  porder : int array;
  pos_of : int array;  (* row -> position *)
  udiag : float array;
  ustart : int array;
  ulen : int array;
  mutable uidx : int array;
  mutable upool : pool;
  mutable unnz : int;  (* pool high-water; columns never grow in place *)
  (* ---- Forrest-Tomlin row etas, applied in creation order after L
     in ftran: x.(rr.(k)) -= sum mu_i * x.(i). *)
  mutable n_r : int;
  mutable rr : int array;
  mutable rstart : int array;
  mutable ridx : int array;
  mutable rpool : pool;
  mutable rnnz : int;
  mutable n_updates : int;
  mutable base_entries : int;  (* lnnz + unnz of the fresh factorisation *)
  mutable unstable : bool;
  (* scratch: dense accumulator with touched tracking *)
  work : float array;
  stamp : int array;
  mutable gen : int;
  touched : int array;
  mutable n_touched : int;
  (* second accumulator for the update's row elimination *)
  mu : float array;
  mu_stamp : int array;
  mutable mu_gen : int;
  (* static row counts from the last symbolic phase (Markowitz tie) *)
  row_cnt : int array;
  (* factorisation scratch, allocated once: L-eta index by pivot row,
     DFS stacks for the Gilbert-Peierls symbolic reach, and the
     symbolic-peel work arrays *)
  l_of_row : int array;
  dfs_row : int array;
  dfs_pos : int array;
  col_cnt : int array;
  row_ptr : int array;  (* m + 1 *)
  row_fill : int array;
  mutable row_pos : int array;  (* grows with basis nnz *)
  row_active : bool array;
  col_done : bool array;
  order : int array;
  pivot_of : int array;
  peel_stack : int array;
  assigned : bool array;
  slot_col : int array;
}

let create ~m =
  {
    m;
    n_l = 0;
    lr = Array.make (Int.max 1 m) 0;
    lstart = Array.make (m + 1) 0;
    lidx = Array.make 256 0;
    lpool = pool_create 256;
    lnnz = 0;
    porder = Array.init m (fun p -> p);
    pos_of = Array.init m (fun r -> r);
    udiag = Array.make (Int.max 1 m) 1.;
    ustart = Array.make (Int.max 1 m) 0;
    ulen = Array.make (Int.max 1 m) 0;
    uidx = Array.make 256 0;
    upool = pool_create 256;
    unnz = 0;
    n_r = 0;
    rr = Array.make 64 0;
    rstart = Array.make 65 0;
    ridx = Array.make 256 0;
    rpool = pool_create 256;
    rnnz = 0;
    n_updates = 0;
    base_entries = 0;
    unstable = false;
    work = Array.make m 0.;
    stamp = Array.make m (-1);
    gen = 0;
    touched = Array.make m 0;
    n_touched = 0;
    mu = Array.make m 0.;
    mu_stamp = Array.make m (-1);
    mu_gen = 0;
    row_cnt = Array.make m 0;
    l_of_row = Array.make m (-1);
    dfs_row = Array.make m 0;
    dfs_pos = Array.make m 0;
    col_cnt = Array.make m 0;
    row_ptr = Array.make (m + 1) 0;
    row_fill = Array.make m 0;
    row_pos = Array.make 256 0;
    row_active = Array.make m true;
    col_done = Array.make m false;
    order = Array.make m 0;
    pivot_of = Array.make m (-1);
    peel_stack = Array.make m 0;
    assigned = Array.make m false;
    slot_col = Array.make m (-1);
  }

let ft_entries f = f.rnnz

let set_identity f =
  f.n_l <- 0;
  f.lnnz <- 0;
  f.unnz <- 0;
  f.n_r <- 0;
  f.rnnz <- 0;
  f.n_updates <- 0;
  f.base_entries <- f.m;
  f.unstable <- false;
  for p = 0 to f.m - 1 do
    f.porder.(p) <- p;
    f.pos_of.(p) <- p;
    f.udiag.(p) <- 1.;
    f.ustart.(p) <- 0;
    f.ulen.(p) <- 0
  done

(* Refactorising costs roughly one FTRAN per basis column; an update
   costs one spike plus a row sweep.  A cap of ~m updates (floored for
   tiny bases) keeps the amortised cost bounded even when every update
   is numerically clean, and a fill cap catches pathological eta
   growth. *)
let needs_refresh f =
  f.unstable
  || f.n_updates >= Int.max 64 (Int.min 1024 f.m)
  || f.lnnz + f.unnz + f.rnnz > (4 * f.base_entries) + (16 * f.m)

(* Copy [len] entries of [src] into [dst] with a plain loop.  The
   workspaces live in the major heap, where [Array.blit] would pay a
   [caml_modify] write barrier for every element. *)
let blit_ints (src : int array) (dst : int array) len =
  for i = 0 to len - 1 do
    dst.(i) <- src.(i)
  done

(* the first doubling of [cap] that holds [need] entries *)
let doubled cap need =
  let c = ref cap in
  while !c < need do
    c := 2 * !c
  done;
  !c

(* [a] itself when it holds [need] entries, else a doubled copy *)
let grow_ints (a : int array) need =
  let cap = Array.length a in
  if cap >= need then a
  else begin
    let b = Array.make (doubled cap need) 0 in
    blit_ints a b cap;
    b
  end

let grow_pool (p : pool) need =
  let cap = A1.dim p in
  if cap >= need then p
  else begin
    let b = pool_create (doubled cap need) in
    A1.blit p (A1.sub b 0 cap);
    b
  end

let grow_l f need =
  if Array.length f.lidx < need || A1.dim f.lpool < need then begin
    f.lidx <- grow_ints f.lidx need;
    f.lpool <- grow_pool f.lpool need
  end

let grow_u f need =
  if Array.length f.uidx < need || A1.dim f.upool < need then begin
    f.uidx <- grow_ints f.uidx need;
    f.upool <- grow_pool f.upool need
  end

let grow_r_etas f =
  let cap = Array.length f.rr in
  if f.n_r >= cap then begin
    f.rr <- grow_ints f.rr (2 * cap);
    f.rstart <- grow_ints f.rstart ((2 * cap) + 1)
  end

let grow_r_pool f need =
  if Array.length f.ridx < need || A1.dim f.rpool < need then begin
    f.ridx <- grow_ints f.ridx need;
    f.rpool <- grow_pool f.rpool need
  end

(* ---- snapshots ------------------------------------------------- *)

type snapshot = {
  s_m : int;
  mutable s_n_l : int;
  s_lr : int array;
  s_lstart : int array;
  mutable s_lidx : int array;
  mutable s_lpool : pool;
  mutable s_lnnz : int;
  s_porder : int array;
  s_pos_of : int array;
  s_udiag : float array;
  s_ustart : int array;
  s_ulen : int array;
  mutable s_uidx : int array;
  mutable s_upool : pool;
  mutable s_unnz : int;
  mutable s_n_r : int;
  mutable s_rr : int array;
  mutable s_rstart : int array;
  mutable s_ridx : int array;
  mutable s_rpool : pool;
  mutable s_rnnz : int;
  mutable s_n_updates : int;
  mutable s_base_entries : int;
  mutable s_unstable : bool;
}

let snapshot_create ~m =
  {
    s_m = m;
    s_n_l = 0;
    s_lr = Array.make (Int.max 1 m) 0;
    s_lstart = Array.make (m + 1) 0;
    s_lidx = Array.make 256 0;
    s_lpool = pool_create 256;
    s_lnnz = 0;
    s_porder = Array.make (Int.max 1 m) 0;
    s_pos_of = Array.make (Int.max 1 m) 0;
    s_udiag = Array.make (Int.max 1 m) 1.;
    s_ustart = Array.make (Int.max 1 m) 0;
    s_ulen = Array.make (Int.max 1 m) 0;
    s_uidx = Array.make 256 0;
    s_upool = pool_create 256;
    s_unnz = 0;
    s_n_r = 0;
    s_rr = Array.make 64 0;
    s_rstart = Array.make 65 0;
    s_ridx = Array.make 256 0;
    s_rpool = pool_create 256;
    s_rnnz = 0;
    s_n_updates = 0;
    s_base_entries = 0;
    s_unstable = false;
  }

let blit_pool (src : pool) (dst : pool) len =
  if len > 0 then A1.blit (A1.sub src 0 len) (A1.sub dst 0 len)

let save f (s : snapshot) =
  if s.s_m <> f.m then invalid_arg "Factor.save: size mismatch";
  let m = f.m in
  s.s_n_l <- f.n_l;
  blit_ints f.lr s.s_lr f.n_l;
  blit_ints f.lstart s.s_lstart (f.n_l + 1);
  s.s_lidx <- grow_ints s.s_lidx f.lnnz;
  s.s_lpool <- grow_pool s.s_lpool f.lnnz;
  blit_ints f.lidx s.s_lidx f.lnnz;
  blit_pool f.lpool s.s_lpool f.lnnz;
  s.s_lnnz <- f.lnnz;
  blit_ints f.porder s.s_porder m;
  blit_ints f.pos_of s.s_pos_of m;
  Array.blit f.udiag 0 s.s_udiag 0 m;
  blit_ints f.ustart s.s_ustart m;
  blit_ints f.ulen s.s_ulen m;
  s.s_uidx <- grow_ints s.s_uidx f.unnz;
  s.s_upool <- grow_pool s.s_upool f.unnz;
  blit_ints f.uidx s.s_uidx f.unnz;
  blit_pool f.upool s.s_upool f.unnz;
  s.s_unnz <- f.unnz;
  s.s_n_r <- f.n_r;
  s.s_rr <- grow_ints s.s_rr f.n_r;
  s.s_rstart <- grow_ints s.s_rstart (f.n_r + 1);
  blit_ints f.rr s.s_rr f.n_r;
  blit_ints f.rstart s.s_rstart (f.n_r + 1);
  s.s_ridx <- grow_ints s.s_ridx f.rnnz;
  s.s_rpool <- grow_pool s.s_rpool f.rnnz;
  blit_ints f.ridx s.s_ridx f.rnnz;
  blit_pool f.rpool s.s_rpool f.rnnz;
  s.s_rnnz <- f.rnnz;
  s.s_n_updates <- f.n_updates;
  s.s_base_entries <- f.base_entries;
  s.s_unstable <- f.unstable

let restore (s : snapshot) f =
  if s.s_m <> f.m then invalid_arg "Factor.restore: size mismatch";
  let m = f.m in
  f.n_l <- s.s_n_l;
  blit_ints s.s_lr f.lr s.s_n_l;
  blit_ints s.s_lstart f.lstart (s.s_n_l + 1);
  grow_l f s.s_lnnz;
  blit_ints s.s_lidx f.lidx s.s_lnnz;
  blit_pool s.s_lpool f.lpool s.s_lnnz;
  f.lnnz <- s.s_lnnz;
  blit_ints s.s_porder f.porder m;
  blit_ints s.s_pos_of f.pos_of m;
  Array.blit s.s_udiag 0 f.udiag 0 m;
  blit_ints s.s_ustart f.ustart m;
  blit_ints s.s_ulen f.ulen m;
  grow_u f s.s_unnz;
  blit_ints s.s_uidx f.uidx s.s_unnz;
  blit_pool s.s_upool f.upool s.s_unnz;
  f.unnz <- s.s_unnz;
  f.n_r <- s.s_n_r;
  f.rr <- grow_ints f.rr s.s_n_r;
  f.rstart <- grow_ints f.rstart (s.s_n_r + 1);
  blit_ints s.s_rr f.rr s.s_n_r;
  blit_ints s.s_rstart f.rstart (s.s_n_r + 1);
  grow_r_pool f s.s_rnnz;
  blit_ints s.s_ridx f.ridx s.s_rnnz;
  blit_pool s.s_rpool f.rpool s.s_rnnz;
  f.rnnz <- s.s_rnnz;
  f.n_updates <- s.s_n_updates;
  f.base_entries <- s.s_base_entries;
  f.unstable <- s.s_unstable

(* ---- solves --------------------------------------------------- *)

let ftran f (x : float array) =
  (* L *)
  for s = 0 to f.n_l - 1 do
    let xr = x.(f.lr.(s)) in
    if xr <> 0. then
      for p = f.lstart.(s) to f.lstart.(s + 1) - 1 do
        let i = Array.unsafe_get f.lidx p in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (A1.unsafe_get f.lpool p *. xr))
      done
  done;
  (* Forrest-Tomlin row etas, creation order *)
  for k = 0 to f.n_r - 1 do
    let acc = ref 0. in
    for p = f.rstart.(k) to f.rstart.(k + 1) - 1 do
      acc :=
        !acc
        +. (A1.unsafe_get f.rpool p
            *. Array.unsafe_get x (Array.unsafe_get f.ridx p))
    done;
    let r = f.rr.(k) in
    x.(r) <- x.(r) -. !acc
  done;
  (* U backward, column sweeps *)
  for p = f.m - 1 downto 0 do
    let r = Array.unsafe_get f.porder p in
    let xr = Array.unsafe_get x r in
    if xr <> 0. then begin
      let tv = xr /. Array.unsafe_get f.udiag p in
      Array.unsafe_set x r tv;
      let s0 = f.ustart.(p) in
      for e = s0 to s0 + f.ulen.(p) - 1 do
        let i = Array.unsafe_get f.uidx e in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (A1.unsafe_get f.upool e *. tv))
      done
    end
  done

let btran f (y : float array) =
  (* U^T forward *)
  for p = 0 to f.m - 1 do
    let r = Array.unsafe_get f.porder p in
    let acc = ref (Array.unsafe_get y r) in
    let s0 = f.ustart.(p) in
    for e = s0 to s0 + f.ulen.(p) - 1 do
      acc :=
        !acc
        -. (A1.unsafe_get f.upool e
            *. Array.unsafe_get y (Array.unsafe_get f.uidx e))
    done;
    Array.unsafe_set y r (!acc /. Array.unsafe_get f.udiag p)
  done;
  (* row etas transposed, reverse creation order *)
  for k = f.n_r - 1 downto 0 do
    let yr = y.(f.rr.(k)) in
    if yr <> 0. then
      for p = f.rstart.(k) to f.rstart.(k + 1) - 1 do
        let i = Array.unsafe_get f.ridx p in
        Array.unsafe_set y i
          (Array.unsafe_get y i -. (A1.unsafe_get f.rpool p *. yr))
      done
  done;
  (* L^T, reverse creation order *)
  for s = f.n_l - 1 downto 0 do
    let acc = ref 0. in
    for p = f.lstart.(s) to f.lstart.(s + 1) - 1 do
      acc :=
        !acc
        +. (A1.unsafe_get f.lpool p
            *. Array.unsafe_get y (Array.unsafe_get f.lidx p))
    done;
    let r = f.lr.(s) in
    y.(r) <- y.(r) -. !acc
  done

(* ---- Forrest-Tomlin update ------------------------------------ *)

let singular_tol = 1e-11
let ft_stab_tol = 1e-7

let touch f i =
  if f.stamp.(i) <> f.gen then begin
    f.stamp.(i) <- f.gen;
    f.touched.(f.n_touched) <- i;
    f.n_touched <- f.n_touched + 1;
    f.work.(i) <- 0.
  end

let update f ~(w : float array) ~r =
  (* spike s = U w, accumulated sparsely in work *)
  f.gen <- f.gen + 1;
  f.n_touched <- 0;
  for p = 0 to f.m - 1 do
    let rp = f.porder.(p) in
    let wv = w.(rp) in
    if wv <> 0. then begin
      touch f rp;
      f.work.(rp) <- f.work.(rp) +. (f.udiag.(p) *. wv);
      let s0 = f.ustart.(p) in
      for e = s0 to s0 + f.ulen.(p) - 1 do
        let i = f.uidx.(e) in
        touch f i;
        f.work.(i) <- f.work.(i) +. (A1.unsafe_get f.upool e *. wv)
      done
    end
  done;
  (* rotate positions t+1..m-1 down one slot; along the way delete the
     leaving row's entry from each column and eliminate the exposed
     row with multipliers recorded as one row eta *)
  let t = f.pos_of.(r) in
  f.mu_gen <- f.mu_gen + 1;
  grow_r_etas f;
  let k = f.n_r in
  f.rstart.(k) <- f.rnnz;
  for p_old = t + 1 to f.m - 1 do
    let p = p_old - 1 in
    let prow = f.porder.(p_old) in
    let diag = f.udiag.(p_old) in
    let s0 = f.ustart.(p_old) in
    let len = ref f.ulen.(p_old) in
    (* row-r entry of this column, if any: capture and swap-delete *)
    let a = ref 0. in
    let e = ref s0 in
    let stop = ref (s0 + !len) in
    while !e < !stop do
      if f.uidx.(!e) = r then begin
        a := !a +. A1.unsafe_get f.upool !e;
        decr stop;
        decr len;
        f.uidx.(!e) <- f.uidx.(!stop);
        A1.unsafe_set f.upool !e (A1.unsafe_get f.upool !stop)
      end
      else begin
        (* fill contribution from already-eliminated positions *)
        let i = f.uidx.(!e) in
        if f.mu_stamp.(i) = f.mu_gen then
          a := !a -. (f.mu.(i) *. A1.unsafe_get f.upool !e);
        incr e
      end
    done;
    f.porder.(p) <- prow;
    f.pos_of.(prow) <- p;
    f.udiag.(p) <- diag;
    f.ustart.(p) <- s0;
    f.ulen.(p) <- !len;
    if !a <> 0. then begin
      let mv = !a /. diag in
      f.mu.(prow) <- mv;
      f.mu_stamp.(prow) <- f.mu_gen;
      grow_r_pool f (f.rnnz + 1);
      f.ridx.(f.rnnz) <- prow;
      A1.unsafe_set f.rpool f.rnnz mv;
      f.rnnz <- f.rnnz + 1
    end
  done;
  if f.rnnz > f.rstart.(k) then begin
    f.rr.(k) <- r;
    f.rstart.(k + 1) <- f.rnnz;
    f.n_r <- k + 1
  end;
  (* spike column moves to the last position; its row-r entry becomes
     the new diagonal after the row elimination *)
  let dnew = ref 0. in
  let smax = ref 0. in
  let count = ref 0 in
  for q = 0 to f.n_touched - 1 do
    let i = f.touched.(q) in
    let v = f.work.(i) in
    let av = Float.abs v in
    if av > !smax then smax := av;
    if i = r then dnew := !dnew +. v
    else begin
      if v <> 0. then incr count;
      if f.mu_stamp.(i) = f.mu_gen then dnew := !dnew -. (f.mu.(i) *. v)
    end
  done;
  grow_u f (f.unnz + !count);
  let s0 = f.unnz in
  let e = ref s0 in
  for q = 0 to f.n_touched - 1 do
    let i = f.touched.(q) in
    if i <> r && f.work.(i) <> 0. then begin
      f.uidx.(!e) <- i;
      A1.unsafe_set f.upool !e f.work.(i);
      incr e
    end;
    f.work.(i) <- 0.
  done;
  f.n_touched <- 0;
  f.unnz <- !e;
  let d = !dnew in
  if Float.abs d <= singular_tol || Float.abs d <= ft_stab_tol *. !smax then
    f.unstable <- true;
  let d = if Float.abs d < 1e-250 then (if d < 0. then -1e-250 else 1e-250) else d in
  let last = f.m - 1 in
  f.porder.(last) <- r;
  f.pos_of.(r) <- last;
  f.udiag.(last) <- d;
  f.ustart.(last) <- s0;
  f.ulen.(last) <- !e - s0;
  f.n_updates <- f.n_updates + 1

(* ---- factorize: singleton peel + Markowitz-style bump ---------- *)

(* Apply the partial L (etas built so far) to basis column [j],
   accumulated sparsely in [work]; during factorize n_r = 0.

   Gilbert-Peierls: a DFS from the column's rows through the L-eta
   graph (row r -> the rows its eta scatters into) collects exactly
   the rows that can become nonzero, in post-order.  Eta entries land
   only on rows pivoted later, so reverse post-order is a topological
   order consistent with eta creation order, and the numeric sweep
   applies just the reached etas.  Cost is O(flops in this column),
   independent of how many etas the factorisation has built. *)
let ftran_touched f ~ptr ~idx ~(vs : float array) j =
  f.gen <- f.gen + 1;
  f.n_touched <- 0;
  let gen = f.gen in
  for p = ptr.(j) to ptr.(j + 1) - 1 do
    let i0 = idx.(p) in
    if f.stamp.(i0) <> gen then begin
      f.stamp.(i0) <- gen;
      f.work.(i0) <- 0.;
      f.dfs_row.(0) <- i0;
      f.dfs_pos.(0) <- 0;
      let sp = ref 0 in
      while !sp >= 0 do
        let r = f.dfs_row.(!sp) in
        let s = f.l_of_row.(r) in
        let descended = ref false in
        if s >= 0 then begin
          let base = f.lstart.(s) in
          let len = f.lstart.(s + 1) - base in
          let q = ref f.dfs_pos.(!sp) in
          while (not !descended) && !q < len do
            let i = Array.unsafe_get f.lidx (base + !q) in
            incr q;
            if f.stamp.(i) <> gen then begin
              f.stamp.(i) <- gen;
              f.work.(i) <- 0.;
              f.dfs_pos.(!sp) <- !q;
              incr sp;
              f.dfs_row.(!sp) <- i;
              f.dfs_pos.(!sp) <- 0;
              descended := true
            end
          done
        end;
        if not !descended then begin
          f.touched.(f.n_touched) <- r;
          f.n_touched <- f.n_touched + 1;
          decr sp
        end
      done
    end
  done;
  for p = ptr.(j) to ptr.(j + 1) - 1 do
    let i = idx.(p) in
    f.work.(i) <- f.work.(i) +. vs.(p)
  done;
  for t = f.n_touched - 1 downto 0 do
    let r = f.touched.(t) in
    let s = f.l_of_row.(r) in
    if s >= 0 then begin
      let xr = f.work.(r) in
      if xr <> 0. then
        for p = f.lstart.(s) to f.lstart.(s + 1) - 1 do
          let i = Array.unsafe_get f.lidx p in
          Array.unsafe_set f.work i
            (Array.unsafe_get f.work i -. (A1.unsafe_get f.lpool p *. xr))
        done
    end
  done

let clear_touched f =
  for t = 0 to f.n_touched - 1 do
    f.work.(f.touched.(t)) <- 0.
  done;
  f.n_touched <- 0

(* Emit the U column and L eta for pivot row [r] at position [tpos]
   from the touched image in [work].  [assigned] marks rows already
   pivoted (U rows); everything else feeds the L eta. *)
let push_column f ~assigned ~r ~tpos =
  let d = f.work.(r) in
  f.porder.(tpos) <- r;
  f.pos_of.(r) <- tpos;
  f.udiag.(tpos) <- d;
  let nu = ref 0 and nl = ref 0 in
  for q = 0 to f.n_touched - 1 do
    let i = f.touched.(q) in
    if i <> r && f.work.(i) <> 0. then
      if assigned.(i) then incr nu else incr nl
  done;
  grow_u f (f.unnz + !nu);
  grow_l f (f.lnnz + !nl);
  let ue = ref f.unnz in
  let le = ref f.lnnz in
  for q = 0 to f.n_touched - 1 do
    let i = f.touched.(q) in
    let v = f.work.(i) in
    if i <> r && v <> 0. then
      if assigned.(i) then begin
        f.uidx.(!ue) <- i;
        A1.unsafe_set f.upool !ue v;
        incr ue
      end
      else begin
        f.lidx.(!le) <- i;
        A1.unsafe_set f.lpool !le (v /. d);
        incr le
      end
  done;
  f.ustart.(tpos) <- f.unnz;
  f.ulen.(tpos) <- !ue - f.unnz;
  f.unnz <- !ue;
  if !le > f.lnnz then begin
    f.lr.(f.n_l) <- r;
    f.lstart.(f.n_l) <- f.lnnz;
    f.lstart.(f.n_l + 1) <- !le;
    f.lnnz <- !le;
    f.l_of_row.(r) <- f.n_l;
    f.n_l <- f.n_l + 1
  end

let factorize f ~basis ~ptr ~idx ~vs =
  set_identity f;
  f.base_entries <- 0;
  let m = f.m in
  Array.fill f.l_of_row 0 m (-1);
  (* ---- symbolic peel: repeated column singletons ---- *)
  let col_cnt = f.col_cnt in
  let row_cnt = f.row_cnt in
  Array.fill row_cnt 0 m 0;
  for k = 0 to m - 1 do
    let j = basis.(k) in
    col_cnt.(k) <- ptr.(j + 1) - ptr.(j);
    for p = ptr.(j) to ptr.(j + 1) - 1 do
      row_cnt.(idx.(p)) <- row_cnt.(idx.(p)) + 1
    done
  done;
  (* row -> basis positions containing it (counting sort) *)
  let row_ptr = f.row_ptr in
  row_ptr.(0) <- 0;
  for i = 0 to m - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + row_cnt.(i)
  done;
  let fill = f.row_fill in
  blit_ints row_ptr fill m;
  let total = row_ptr.(m) in
  f.row_pos <- grow_ints f.row_pos total;
  let row_pos = f.row_pos in
  for k = 0 to m - 1 do
    let j = basis.(k) in
    for p = ptr.(j) to ptr.(j + 1) - 1 do
      let i = idx.(p) in
      row_pos.(fill.(i)) <- k;
      fill.(i) <- fill.(i) + 1
    done
  done;
  let row_active = f.row_active in
  Array.fill row_active 0 m true;
  let col_done = f.col_done in
  Array.fill col_done 0 m false;
  let order = f.order in
  let pivot_of = f.pivot_of in
  Array.fill pivot_of 0 m (-1);
  let n_order = ref 0 in
  let stack = f.peel_stack in
  let sp = ref 0 in
  for k = 0 to m - 1 do
    if col_cnt.(k) = 1 then begin
      stack.(!sp) <- k;
      incr sp
    end
  done;
  while !sp > 0 do
    decr sp;
    let k = stack.(!sp) in
    if (not col_done.(k)) && col_cnt.(k) = 1 then begin
      (* its single active row *)
      let j = basis.(k) in
      let r = ref (-1) in
      for p = ptr.(j) to ptr.(j + 1) - 1 do
        if row_active.(idx.(p)) then r := idx.(p)
      done;
      if !r >= 0 then begin
        let r = !r in
        col_done.(k) <- true;
        row_active.(r) <- false;
        order.(!n_order) <- k;
        pivot_of.(k) <- r;
        incr n_order;
        for q = row_ptr.(r) to row_ptr.(r + 1) - 1 do
          let k' = row_pos.(q) in
          if not col_done.(k') then begin
            col_cnt.(k') <- col_cnt.(k') - 1;
            if col_cnt.(k') = 1 then begin
              stack.(!sp) <- k';
              incr sp
            end
          end
        done
      end
    end
  done;
  (* bump columns: everything not peeled, in position order *)
  for k = 0 to m - 1 do
    if not col_done.(k) then begin
      order.(!n_order) <- k;
      incr n_order
    end
  done;
  (* ---- numeric left-looking insertion in peel order ---- *)
  let assigned = f.assigned in
  Array.fill assigned 0 m false;
  let slot_col = f.slot_col in
  let ok = ref true in
  let t = ref 0 in
  while !ok && !t < m do
    let k = order.(!t) in
    let j = basis.(k) in
    ftran_touched f ~ptr ~idx ~vs j;
    let r =
      if pivot_of.(k) >= 0 then pivot_of.(k)
      else begin
        (* bump: Markowitz-style — among candidates within a fixed
           fraction of the column maximum, prefer the statically
           sparsest row; break ties on magnitude, then index *)
        let vmax = ref 0. in
        for q = 0 to f.n_touched - 1 do
          let i = f.touched.(q) in
          if not assigned.(i) then begin
            let a = Float.abs f.work.(i) in
            if a > !vmax then vmax := a
          end
        done;
        if !vmax <= singular_tol then -1
        else begin
          let thresh = 0.05 *. !vmax in
          let best = ref (-1) in
          let best_cnt = ref max_int in
          let best_mag = ref 0. in
          for q = 0 to f.n_touched - 1 do
            let i = f.touched.(q) in
            if not assigned.(i) then begin
              let a = Float.abs f.work.(i) in
              if a >= thresh then begin
                let c = row_cnt.(i) in
                if
                  c < !best_cnt
                  || (c = !best_cnt
                      && (a > !best_mag || (a = !best_mag && i < !best)))
                then begin
                  best := i;
                  best_cnt := c;
                  best_mag := a
                end
              end
            end
          done;
          !best
        end
      end
    in
    if r < 0 || Float.abs f.work.(r) <= singular_tol || assigned.(r) then
      ok := false
    else begin
      push_column f ~assigned ~r ~tpos:!t;
      assigned.(r) <- true;
      slot_col.(r) <- j
    end;
    clear_touched f;
    incr t
  done;
  if !ok then begin
    (* the factorisation defines the slot order: basis.(r) is the
       column pivoted at row r *)
    blit_ints slot_col basis m;
    f.base_entries <- f.lnnz + f.unnz + m;
    f.n_updates <- 0;
    f.unstable <- false;
    true
  end
  else begin
    set_identity f;
    false
  end
