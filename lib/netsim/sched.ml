type kind = Wheel

(* ---- growable flat bucket: parallel (time, seq, event) arrays ---- *)

type bucket = {
  mutable bt : float array;
  mutable bs : int array;
  mutable bv : int array;
  mutable blen : int;
}

let bucket () = { bt = [||]; bs = [||]; bv = [||]; blen = 0 }

let bucket_push b t s v =
  let cap = Array.length b.bt in
  if b.blen = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let nt = Array.make ncap 0. in
    let ns = Array.make ncap 0 in
    let nv = Array.make ncap 0 in
    Array.blit b.bt 0 nt 0 cap;
    Array.blit b.bs 0 ns 0 cap;
    Array.blit b.bv 0 nv 0 cap;
    b.bt <- nt;
    b.bs <- ns;
    b.bv <- nv
  end;
  b.bt.(b.blen) <- t;
  b.bs.(b.blen) <- s;
  b.bv.(b.blen) <- v;
  b.blen <- b.blen + 1

(* ---- hierarchical timing wheel ---- *)

let bits = 8
let slots = 1 lsl bits
let mask = slots - 1

type t = {
  tick : float;
  lv0 : bucket array;  (* ticks in the current level-0 frame *)
  lv1 : bucket array;  (* level-0 frames in the current level-1 frame *)
  ovf : bucket;  (* everything beyond the current level-1 frame *)
  mutable cur : int;  (* next uncollected tick *)
  mutable n0 : int;
  mutable n1 : int;
  mutable seq : int;
  (* ready heap: events due now, ordered lexicographically by
     (time, seq) so equal timestamps drain FIFO *)
  mutable rt : float array;
  mutable rs : int array;
  mutable rv : int array;
  mutable rlen : int;
  mutable ct : float;  (* last popped key/payload *)
  mutable cv : int;
}

let create ?(capacity = 1024) ?(tick = 1e-3) () =
  if not (tick > 0.) then invalid_arg "Sched.create: tick must be > 0";
  let capacity = Int.max 16 capacity in
  {
    tick;
    lv0 = Array.init slots (fun _ -> bucket ());
    lv1 = Array.init slots (fun _ -> bucket ());
    ovf = bucket ();
    cur = 0;
    n0 = 0;
    n1 = 0;
    seq = 0;
    rt = Array.make capacity 0.;
    rs = Array.make capacity 0;
    rv = Array.make capacity 0;
    rlen = 0;
    ct = 0.;
    cv = 0;
  }

let clear w =
  let empty b = b.blen <- 0 in
  Array.iter empty w.lv0;
  Array.iter empty w.lv1;
  empty w.ovf;
  w.cur <- 0;
  w.n0 <- 0;
  w.n1 <- 0;
  w.seq <- 0;
  w.rlen <- 0;
  w.ct <- 0.;
  w.cv <- 0

let length w = w.rlen + w.n0 + w.n1 + w.ovf.blen

(* ready-heap primitives (min-heap on (time, seq)) *)

let rless w i j =
  w.rt.(i) < w.rt.(j) || (w.rt.(i) = w.rt.(j) && w.rs.(i) < w.rs.(j))

let rswap w i j =
  let t = w.rt.(i) and s = w.rs.(i) and v = w.rv.(i) in
  w.rt.(i) <- w.rt.(j);
  w.rs.(i) <- w.rs.(j);
  w.rv.(i) <- w.rv.(j);
  w.rt.(j) <- t;
  w.rs.(j) <- s;
  w.rv.(j) <- v

let rec rsift_up w i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if rless w i p then begin
      rswap w i p;
      rsift_up w p
    end
  end

let rec rsift_down w i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < w.rlen && rless w l !m then m := l;
  if r < w.rlen && rless w r !m then m := r;
  if !m <> i then begin
    rswap w i !m;
    rsift_down w !m
  end

let ready_push w t s v =
  let cap = Array.length w.rt in
  if w.rlen = cap then begin
    let ncap = 2 * cap in
    let nt = Array.make ncap 0. in
    let ns = Array.make ncap 0 in
    let nv = Array.make ncap 0 in
    Array.blit w.rt 0 nt 0 cap;
    Array.blit w.rs 0 ns 0 cap;
    Array.blit w.rv 0 nv 0 cap;
    w.rt <- nt;
    w.rs <- ns;
    w.rv <- nv
  end;
  w.rt.(w.rlen) <- t;
  w.rs.(w.rlen) <- s;
  w.rv.(w.rlen) <- v;
  w.rlen <- w.rlen + 1;
  rsift_up w (w.rlen - 1)

let tick_of w t =
  let i = int_of_float (t /. w.tick) in
  if i < 0 then 0 else i

(* route one event to ready / level0 / level1 / overflow *)
let place w t s v =
  let tk = tick_of w t in
  if tk < w.cur then ready_push w t s v
  else if tk lsr bits = w.cur lsr bits then begin
    bucket_push w.lv0.(tk land mask) t s v;
    w.n0 <- w.n0 + 1
  end
  else if tk lsr (2 * bits) = w.cur lsr (2 * bits) then begin
    bucket_push w.lv1.((tk lsr bits) land mask) t s v;
    w.n1 <- w.n1 + 1
  end
  else bucket_push w.ovf t s v

let push w time ev =
  let s = w.seq in
  w.seq <- s + 1;
  place w time s ev

(* re-place overflow entries that now fall inside the current level-1
   frame; compacts the overflow bucket in place *)
let refill_from_overflow w =
  let f1 = w.cur lsr (2 * bits) in
  let b = w.ovf in
  let j = ref 0 in
  for i = 0 to b.blen - 1 do
    let t = b.bt.(i) and s = b.bs.(i) and v = b.bv.(i) in
    if tick_of w t lsr (2 * bits) <= f1 then place w t s v
    else begin
      b.bt.(!j) <- t;
      b.bs.(!j) <- s;
      b.bv.(!j) <- v;
      incr j
    end
  done;
  b.blen <- !j

(* pull the level-1 bucket for the level-0 frame that [w.cur] (a frame
   start) just entered, re-placing its entries into level 0 *)
let cascade w =
  let f0 = w.cur lsr bits in
  if f0 land mask = 0 && w.ovf.blen > 0 then refill_from_overflow w;
  let b = w.lv1.(f0 land mask) in
  if b.blen > 0 then begin
    w.n1 <- w.n1 - b.blen;
    let len = b.blen in
    b.blen <- 0;
    for i = 0 to len - 1 do
      place w b.bt.(i) b.bs.(i) b.bv.(i)
    done
  end

let rec advance w =
  if w.rlen > 0 then ()
  else if w.n0 > 0 then begin
    (* level 0 only holds current-frame ticks >= cur, so this scan
       always finds a nonempty slot *)
    let fbase = w.cur land lnot mask in
    let s = ref (w.cur land mask) in
    let found = ref false in
    while (not !found) && !s <= mask do
      let b = w.lv0.(!s) in
      if b.blen > 0 then begin
        for i = 0 to b.blen - 1 do
          ready_push w b.bt.(i) b.bs.(i) b.bv.(i)
        done;
        w.n0 <- w.n0 - b.blen;
        b.blen <- 0;
        w.cur <- (fbase lor !s) + 1;
        (* collecting the frame's last slot moves [cur] into the next
           frame: pull that frame's level-1 bucket now so the frame
           invariant holds for subsequent pushes and scans *)
        if w.cur land mask = 0 then cascade w;
        found := true
      end
      else incr s
    done;
    if not !found then begin
      w.cur <- fbase + slots;
      cascade w;
      advance w
    end
  end
  else if w.n1 > 0 then begin
    (* skip empty level-0 frames inside the current level-1 frame;
       level 1 only holds frames strictly ahead of the current one
       within this level-1 frame, so the scan finds one *)
    let f0 = w.cur lsr bits in
    let k = ref ((f0 land mask) + 1) in
    while !k <= mask && w.lv1.(!k).blen = 0 do
      incr k
    done;
    if !k > mask then begin
      (* defensive: should be unreachable; cross into the next level-1
         frame rather than spin *)
      w.cur <- ((f0 lsr bits) + 1) lsl (2 * bits);
      cascade w;
      advance w
    end
    else begin
      w.cur <- ((f0 land lnot mask) lor !k) lsl bits;
      cascade w;
      advance w
    end
  end
  else if w.ovf.blen > 0 then begin
    (* jump straight to the level-1 frame of the earliest overflow
       event; everything nearer is empty *)
    let m = ref max_int in
    for i = 0 to w.ovf.blen - 1 do
      let tk = tick_of w w.ovf.bt.(i) in
      if tk < !m then m := tk
    done;
    w.cur <- !m land lnot ((slots * slots) - 1);
    refill_from_overflow w;
    cascade w;
    advance w
  end

let pop w =
  if w.rlen = 0 then advance w;
  if w.rlen = 0 then false
  else begin
    w.ct <- w.rt.(0);
    w.cv <- w.rv.(0);
    w.rlen <- w.rlen - 1;
    if w.rlen > 0 then begin
      w.rt.(0) <- w.rt.(w.rlen);
      w.rs.(0) <- w.rs.(w.rlen);
      w.rv.(0) <- w.rv.(w.rlen);
      rsift_down w 0
    end;
    true
  end

let time w = w.ct
let event w = w.cv
