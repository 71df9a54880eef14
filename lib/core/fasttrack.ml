module E = Ft_trace.Event
module Vc = Vector_clock

(* Location state lives in flat int arrays instead of option-boxed records:
   the write history is an epoch + index pair, and the read history is an
   epoch + index pair while the location stays in exclusive mode — the
   common case, which now costs zero allocation and no pointer chasing.
   Shared-mode read clocks are rare, so they live out-of-line in slot pools
   indexed through an open-addressed {!Flat_table}; a location is in shared
   mode iff the table binds it.

   [repoch = Epoch.none] doubles as "no reads yet": the seed treated a
   missing read record and a none-epoch record identically in every check
   ([Epoch.leq_vc Epoch.none] always holds).  A second reserved value,
   [shared_marker], stamps locations that are in shared mode, so the
   exclusive-mode fast path never pays the table probe: a real epoch has
   time ≥ 1 (thread clocks start at 1), hence compares different from both
   sentinels. *)

type t = {
  nthreads : int;
  clocks : Vc.t array;
  lock_clocks : Vc.t option array;
  writes : Epoch.t array;              (* W_x *)
  w_index : int array;                 (* trace index behind W_x *)
  repoch : Epoch.t array;              (* R_x in exclusive mode *)
  rindex : int array;                  (* trace index behind repoch *)
  rshared : Flat_table.t;              (* loc -> slot, shared mode only *)
  mutable rvc_pool : Vc.t array;       (* slot -> read clock *)
  mutable rvc_index_pool : int array array;  (* slot -> per-thread indices *)
  mutable pool_len : int;              (* slots handed out, free list aside *)
  mutable free_slots : int list;       (* slots returned by deflation *)
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "fasttrack"

(* Reserved [repoch] value marking shared mode.  Real read epochs always
   carry time ≥ 1 (thread clocks start at 1), so [time:0] cannot collide;
   tid [0xFFFF] keeps it distinct from [Epoch.none] as well.  Never feed
   this to [Epoch.leq_vc] — its tid indexes past the clock. *)
let shared_marker = Epoch.make ~time:0 ~tid:0xFFFF

let create (cfg : Detector.config) =
  let clocks =
    Array.init cfg.Detector.clock_size (fun i ->
        let c = Vc.create cfg.Detector.clock_size in
        Vc.set c i 1;
        c)
  in
  let nlocs = Stdlib.max 1 cfg.Detector.nlocs in
  {
    nthreads = cfg.Detector.clock_size;
    clocks;
    lock_clocks = Array.make (Stdlib.max 1 cfg.Detector.nlocks) None;
    writes = Array.make nlocs Epoch.none;
    w_index = Array.make nlocs (-1);
    repoch = Array.make nlocs Epoch.none;
    rindex = Array.make nlocs (-1);
    rshared = Flat_table.create ();
    rvc_pool = [||];
    rvc_index_pool = [||];
    pool_len = 0;
    free_slots = [];
    metrics = Metrics.create ();
    races = [];
  }

let declare d index tid x ~with_write ~with_read ~prior =
  d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
  let prior = if prior < 0 then None else Some prior in
  d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races

(* Hand out a zeroed shared-mode slot, recycling deflated ones. *)
let alloc_slot d =
  match d.free_slots with
  | s :: rest ->
    d.free_slots <- rest;
    Vc.reset d.rvc_pool.(s);
    Array.fill d.rvc_index_pool.(s) 0 d.nthreads (-1);
    s
  | [] ->
    if d.pool_len = Array.length d.rvc_pool then begin
      let cap = Stdlib.max 4 (d.pool_len * 2) in
      let rvc = Array.make cap (Vc.create 0) in
      let ri = Array.make cap [||] in
      Array.blit d.rvc_pool 0 rvc 0 d.pool_len;
      Array.blit d.rvc_index_pool 0 ri 0 d.pool_len;
      d.rvc_pool <- rvc;
      d.rvc_index_pool <- ri
    end;
    let s = d.pool_len in
    d.rvc_pool.(s) <- Vc.create d.nthreads;
    d.rvc_index_pool.(s) <- Array.make d.nthreads (-1);
    d.pool_len <- s + 1;
    s

let lock_clock d l =
  match d.lock_clocks.(l) with
  | Some c -> c
  | None ->
    let c = Vc.create d.nthreads in
    d.lock_clocks.(l) <- Some c;
    c

let handle d index (e : E.t) =
  let m = d.metrics in
  m.Metrics.events <- m.Metrics.events + 1;
  let t = e.E.thread in
  let ct = d.clocks.(t) in
  match e.E.op with
  | E.Read x ->
    m.Metrics.reads <- m.Metrics.reads + 1;
    let own = Epoch.make ~time:(Vc.get ct t) ~tid:t in
    let re = d.repoch.(x) in
    if Epoch.equal re own then
      (* exclusive-mode same epoch: one load, one compare, no table probe *)
      m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else if Epoch.equal re shared_marker then begin
      let slot = Flat_table.find d.rshared x in
      let rv = d.rvc_pool.(slot) in
      if Vc.get rv t = Vc.get ct t then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 1;
        if not (Epoch.leq_vc d.writes.(x) ct) then
          declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
        Vc.set rv t (Vc.get ct t);
        d.rvc_index_pool.(slot).(t) <- index
      end
    end
    else begin
      m.Metrics.race_checks <- m.Metrics.race_checks + 1;
      if not (Epoch.leq_vc d.writes.(x) ct) then
        declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
      if Epoch.leq_vc re ct then begin
        (* exclusive read; covers re = none, which leq_vc always admits *)
        d.repoch.(x) <- own;
        d.rindex.(x) <- index
      end
      else begin
        (* inflate to shared mode *)
        let s = alloc_slot d in
        let rv = d.rvc_pool.(s) and ri = d.rvc_index_pool.(s) in
        Vc.set rv (Epoch.tid re) (Epoch.time re);
        ri.(Epoch.tid re) <- d.rindex.(x);
        Vc.set rv t (Vc.get ct t);
        ri.(t) <- index;
        Flat_table.set d.rshared x s;
        d.repoch.(x) <- shared_marker
      end
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    let own = Epoch.make ~time:(Vc.get ct t) ~tid:t in
    if Epoch.equal d.writes.(x) own then
      m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else begin
      m.Metrics.race_checks <- m.Metrics.race_checks + 2;
      let pw = if Epoch.leq_vc d.writes.(x) ct then -1 else d.w_index.(x) in
      if Epoch.equal d.repoch.(x) shared_marker then begin
        let slot = Flat_table.find d.rshared x in
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        let rv = d.rvc_pool.(slot) in
        let rec stale i =
          if i >= Vc.size rv then -1
          else if Vc.get rv i > Vc.get ct i then d.rvc_index_pool.(slot).(i)
          else stale (i + 1)
        in
        let pr = stale 0 in
        let with_write = pw >= 0 and with_read = pr >= 0 in
        if with_write || with_read then
          declare d index t x ~with_write ~with_read
            ~prior:(if with_write then pw else pr);
        d.writes.(x) <- own;
        d.w_index.(x) <- index;
        (* a successful shared-read check lets us fall back to epoch mode *)
        if not with_read then begin
          Flat_table.remove d.rshared x;
          d.free_slots <- slot :: d.free_slots;
          d.repoch.(x) <- Epoch.none
        end
      end
      else begin
        let pr = if Epoch.leq_vc d.repoch.(x) ct then -1 else d.rindex.(x) in
        let with_write = pw >= 0 and with_read = pr >= 0 in
        if with_write || with_read then
          declare d index t x ~with_write ~with_read
            ~prior:(if with_write then pw else pr);
        d.writes.(x) <- own;
        d.w_index.(x) <- index
      end
    end
  | E.Acquire l | E.Acquire_load l ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    (match d.lock_clocks.(l) with
    | None -> ()
    | Some cl ->
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      Vc.join ~into:ct cl)
  | E.Release l | E.Release_store l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    Vc.copy_into ~into:(lock_clock d l) ct;
    Vc.inc ct t
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    Vc.join ~into:d.clocks.(u) ct;
    Vc.inc ct t
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    Vc.join ~into:ct d.clocks.(u)

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Accesses never touch thread clocks here, so sharding needs no replay. *)
let note_sampled (_ : t) (_ : int) = ()

(* Per-location state goes through one keyed section: a location never
   accessed costs nothing.  A shared-mode location ([repoch] =
   [shared_marker]) carries its read clock and indices inline; the keyed
   section's ascending order makes equal detector states encode to equal
   bytes regardless of the table's probe history. *)
let encode_locations enc d =
  Snap.Enc.keyed enc ~n:(Array.length d.writes)
    ~is_default:(fun x ->
      Epoch.equal d.writes.(x) Epoch.none
      && d.w_index.(x) = -1
      && Epoch.equal d.repoch.(x) Epoch.none
      && d.rindex.(x) = -1)
    (fun x ->
      Epoch.encode enc d.writes.(x);
      Snap.Enc.int enc d.w_index.(x);
      Epoch.encode enc d.repoch.(x);
      Snap.Enc.int enc d.rindex.(x);
      if Epoch.equal d.repoch.(x) shared_marker then begin
        let s = Flat_table.find d.rshared x in
        Vc.encode enc d.rvc_pool.(s);
        Snap.Enc.int_array enc d.rvc_index_pool.(s)
      end)

let decode_locations dec d =
  let n = d.nthreads in
  Snap.Dec.keyed dec ~n:(Array.length d.writes) (fun x ->
      d.writes.(x) <- Epoch.decode dec;
      d.w_index.(x) <- Snap.Dec.int dec;
      d.repoch.(x) <- Epoch.decode dec;
      d.rindex.(x) <- Snap.Dec.int dec;
      if Epoch.equal d.repoch.(x) shared_marker then begin
        let slot = alloc_slot d in
        let rv = Vc.decode dec ~size:n in
        Vc.copy_into ~into:d.rvc_pool.(slot) rv;
        let ri = Snap.Dec.int_array_n dec n in
        Array.blit ri 0 d.rvc_index_pool.(slot) 0 n;
        Flat_table.set d.rshared x slot
      end)

let snapshot d =
  let enc = Snap.Enc.create () in
  Array.iter (Vc.encode enc) d.clocks;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
  encode_locations enc d;
  Metrics.encode enc d.metrics;
  Race.encode_list enc d.races;
  Snap.Enc.to_snap enc

let restore (cfg : Detector.config) s =
  let d = create cfg in
  let dec = Snap.Dec.of_snap s in
  let n = d.nthreads in
  for t = 0 to Array.length d.clocks - 1 do
    d.clocks.(t) <- Vc.decode dec ~size:n
  done;
  for l = 0 to Array.length d.lock_clocks - 1 do
    d.lock_clocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
  done;
  decode_locations dec d;
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with metrics }
