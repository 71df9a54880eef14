module E = Ft_trace.Event
module Vc = Vector_clock

(* O(1)-samples detection: FastTrack's adaptive location state (last-write
   epoch, exclusive-read epoch, rare shared-read clocks) applied to the
   sampled subsequence, driven by the sampling-clock machinery of Alg 2/3 —
   ⊥-initialized thread clocks whose own component is externalized as the
   local epoch [e_t] and only flushed into the clock at the first release
   after a sampled access.

   Location state mirrors {!Fasttrack}: flat epoch/index arrays for the
   common exclusive case, out-of-line slot pools behind a {!Flat_table} for
   shared-mode read clocks, [shared_marker] stamping shared locations so the
   exclusive fast path never probes the table.  The one systematic change is
   the ordering check: a recorded epoch [c@u] is compared against
   [C_t[t ↦ e_t]] — the clock's own entry holds only the last *flushed*
   epoch, so same-thread ordering must consult [e_t] (cf. {!History}).

   The functor parameterizes the freshness-clock policy: the plain engine
   ("o1") uses Alg 2's sync handlers; the uclock variant ("o1-u") carries
   Alg 3's U-clocks and last-releaser tags and skips acquires and releases
   that would move no information, exactly as {!Sampling_uclock} does.  The
   skips never change clock contents, so both engines report byte-identical
   races. *)
module Make (Policy : sig
  val name : string
  val uclock : bool
end) =
struct
type t = {
  nthreads : int;
  sample : Sampler.instance;
  clocks : Vc.t array;           (* C_t, initialized to ⊥ *)
  uclocks : Vc.t array;          (* U_t; unused (length 0 clocks) without the policy *)
  epochs : int array;            (* e_t *)
  pending : bool array;          (* sampled event since the last flush? *)
  lock_clocks : Vc.t option array;   (* C_ℓ *)
  lock_uclocks : Vc.t option array;  (* U_ℓ *)
  lock_lr : int array;               (* LR_ℓ, -1 = NIL *)
  writes : Epoch.t array;              (* W_x: last sampled write *)
  w_index : int array;                 (* trace index behind W_x *)
  repoch : Epoch.t array;              (* R_x in exclusive mode *)
  rindex : int array;                  (* trace index behind repoch *)
  rshared : Flat_table.t;              (* loc -> slot, shared mode only *)
  mutable rvc_pool : Vc.t array;       (* slot -> read clock (epoch values) *)
  mutable rvc_index_pool : int array array;  (* slot -> per-thread indices *)
  mutable pool_len : int;
  mutable free_slots : int list;
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = Policy.name

(* Reserved [repoch] value marking shared mode; see {!Fasttrack}.  Local
   epochs start at 1, so a real recorded epoch never has time 0. *)
let shared_marker = Epoch.make ~time:0 ~tid:0xFFFF

let create (cfg : Detector.config) =
  let n = cfg.Detector.clock_size in
  let nlocks = Stdlib.max 1 cfg.Detector.nlocks in
  let nlocs = Stdlib.max 1 cfg.Detector.nlocs in
  {
    nthreads = n;
    sample = Sampler.fresh cfg.Detector.sampler;
    clocks = Array.init n (fun _ -> Vc.create n);
    uclocks =
      (if Policy.uclock then Array.init n (fun _ -> Vc.create n) else [||]);
    epochs = Array.make n 1;
    pending = Array.make n false;
    lock_clocks = Array.make nlocks None;
    lock_uclocks = Array.make nlocks None;
    lock_lr = Array.make nlocks (-1);
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

(* [c@u ⊑ C_t[t ↦ e_t]].  Never fed [shared_marker] — its tid indexes past
   the clock; callers branch on it first. *)
let[@inline] leq_sub e ct ~t ~epoch =
  if Epoch.tid e = t then Epoch.time e <= epoch else Epoch.leq_vc e ct

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

let flush_pending d t =
  if d.pending.(t) then begin
    Vc.set d.clocks.(t) t d.epochs.(t);
    if Policy.uclock then Vc.inc d.uclocks.(t) t;
    d.epochs.(t) <- d.epochs.(t) + 1;
    d.pending.(t) <- false
  end

(* Uclock-policy sync helpers, lifted from {!Sampling_uclock}. *)
let publish d t l =
  let m = d.metrics in
  m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
  m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
  (match d.lock_clocks.(l) with
  | Some cl -> Vc.copy_into ~into:cl d.clocks.(t)
  | None -> d.lock_clocks.(l) <- Some (Vc.copy d.clocks.(t)));
  match d.lock_uclocks.(l) with
  | Some ul -> Vc.copy_into ~into:ul d.uclocks.(t)
  | None -> d.lock_uclocks.(l) <- Some (Vc.copy d.uclocks.(t))

let absorb d t ~src_c ~src_u =
  let m = d.metrics in
  m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
  let ut = d.uclocks.(t) and ct = d.clocks.(t) in
  let changed = ref 0 in
  for i = 0 to Vc.size ct - 1 do
    let u = Vc.get src_u i in
    if u > Vc.get ut i then Vc.set ut i u;
    let c = Vc.get src_c i in
    if c > Vc.get ct i then begin
      Vc.set ct i c;
      incr changed
    end
  done;
  if !changed > 0 then Vc.set ut t (Vc.get ut t + !changed)

let handle d index (e : E.t) =
  let m = d.metrics in
  m.Metrics.events <- m.Metrics.events + 1;
  let t = e.E.thread in
  let ct = d.clocks.(t) in
  match e.E.op with
  | E.Read x ->
    m.Metrics.reads <- m.Metrics.reads + 1;
    if d.sample.Sampler.decide index e then begin
      m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
      let epoch = d.epochs.(t) in
      let own = Epoch.make ~time:epoch ~tid:t in
      let re = d.repoch.(x) in
      if Epoch.equal re own then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else if Epoch.equal re shared_marker then begin
        let slot = Flat_table.find d.rshared x in
        let rv = d.rvc_pool.(slot) in
        if Vc.get rv t = epoch then
          m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
        else begin
          m.Metrics.race_checks <- m.Metrics.race_checks + 1;
          if not (leq_sub d.writes.(x) ct ~t ~epoch) then
            declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
          Vc.set rv t epoch;
          d.rvc_index_pool.(slot).(t) <- index
        end
      end
      else begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 1;
        if not (leq_sub d.writes.(x) ct ~t ~epoch) then
          declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
        if leq_sub re ct ~t ~epoch then begin
          (* exclusive read; covers re = none, which every check admits *)
          d.repoch.(x) <- own;
          d.rindex.(x) <- index
        end
        else begin
          (* inflate to shared mode *)
          let s = alloc_slot d in
          let rv = d.rvc_pool.(s) and ri = d.rvc_index_pool.(s) in
          Vc.set rv (Epoch.tid re) (Epoch.time re);
          ri.(Epoch.tid re) <- d.rindex.(x);
          Vc.set rv t epoch;
          ri.(t) <- index;
          Flat_table.set d.rshared x s;
          d.repoch.(x) <- shared_marker
        end
      end;
      d.pending.(t) <- true
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    if d.sample.Sampler.decide index e then begin
      m.Metrics.sampled_accesses <- m.Metrics.sampled_accesses + 1;
      let epoch = d.epochs.(t) in
      let own = Epoch.make ~time:epoch ~tid:t in
      if Epoch.equal d.writes.(x) own then
        m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
      else begin
        m.Metrics.race_checks <- m.Metrics.race_checks + 2;
        let pw =
          if leq_sub d.writes.(x) ct ~t ~epoch then -1 else d.w_index.(x)
        in
        if Epoch.equal d.repoch.(x) shared_marker then begin
          let slot = Flat_table.find d.rshared x in
          m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
          let rv = d.rvc_pool.(slot) in
          let rec stale i =
            if i >= Vc.size rv then -1
            else if Vc.get rv i > (if i = t then epoch else Vc.get ct i) then
              d.rvc_index_pool.(slot).(i)
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
          let pr =
            if leq_sub d.repoch.(x) ct ~t ~epoch then -1 else d.rindex.(x)
          in
          let with_write = pw >= 0 and with_read = pr >= 0 in
          if with_write || with_read then
            declare d index t x ~with_write ~with_read
              ~prior:(if with_write then pw else pr);
          d.writes.(x) <- own;
          d.w_index.(x) <- index
        end
      end;
      d.pending.(t) <- true
    end
  | E.Acquire l | E.Acquire_load l ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    if Policy.uclock then (
      match d.lock_lr.(l) with
      | -1 -> m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
      | lr ->
        let ul = Option.get d.lock_uclocks.(l) in
        if Vc.get ul lr <= Vc.get d.uclocks.(t) lr then
          m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
        else absorb d t ~src_c:(Option.get d.lock_clocks.(l)) ~src_u:ul)
    else (
      match d.lock_clocks.(l) with
      | None -> ()
      | Some cl ->
        m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
        Vc.join ~into:ct cl)
  | E.Release l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    if Policy.uclock then begin
      d.lock_lr.(l) <- t;
      match d.lock_uclocks.(l) with
      | Some ul when Vc.get ul t = Vc.get d.uclocks.(t) t ->
        (* the lock already carries this thread's latest information *)
        ()
      | Some _ | None -> publish d t l
    end
    else begin
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      Vc.copy_into ~into:(lock_clock d l) ct
    end
  | E.Release_store l ->
    (* non-monotonic lock clock: the release-side skip is unsound here *)
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    if Policy.uclock then begin
      d.lock_lr.(l) <- t;
      publish d t l
    end
    else begin
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      Vc.copy_into ~into:(lock_clock d l) ct
    end
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    flush_pending d t;
    if Policy.uclock then begin
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 2;
      Vc.join ~into:d.uclocks.(u) d.uclocks.(t);
      let changed = Vc.join_count ~into:d.clocks.(u) ct in
      if changed > 0 then Vc.set d.uclocks.(u) u (Vc.get d.uclocks.(u) u + changed)
    end
    else begin
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      Vc.join ~into:d.clocks.(u) ct
    end
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    (* the child's end-of-thread acts as its final release: flush its pending
       sampled epoch so the parent inherits the child's latest accesses *)
    flush_pending d u;
    if Policy.uclock then
      absorb d t ~src_c:d.clocks.(u) ~src_u:d.uclocks.(u)
    else begin
      m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
      Vc.join ~into:ct d.clocks.(u)
    end

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Sharding hook: the thread-local half of a sampled access.  Idempotent
   until the next flush, exactly like the bit it sets. *)
let note_sampled d t = d.pending.(t) <- true

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
  d.sample.Sampler.save enc;
  Array.iter (Vc.encode enc) d.clocks;
  if Policy.uclock then Array.iter (Vc.encode enc) d.uclocks;
  Snap.Enc.int_array enc d.epochs;
  Snap.Enc.bool_array enc d.pending;
  Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_clocks;
  if Policy.uclock then begin
    Array.iter (fun c -> Snap.Enc.option enc (Vc.encode enc) c) d.lock_uclocks;
    Snap.Enc.int_array enc d.lock_lr
  end;
  encode_locations enc d;
  Metrics.encode enc d.metrics;
  Race.encode_list enc d.races;
  Snap.Enc.to_snap enc

let restore (cfg : Detector.config) s =
  let d = create cfg in
  let dec = Snap.Dec.of_snap s in
  let n = d.nthreads in
  d.sample.Sampler.load dec;
  for t = 0 to Array.length d.clocks - 1 do
    d.clocks.(t) <- Vc.decode dec ~size:n
  done;
  if Policy.uclock then
    for t = 0 to Array.length d.uclocks - 1 do
      d.uclocks.(t) <- Vc.decode dec ~size:n
    done;
  let epochs = Snap.Dec.int_array_n dec n in
  Array.blit epochs 0 d.epochs 0 n;
  let pending = Snap.Dec.bool_array_n dec n in
  Array.blit pending 0 d.pending 0 n;
  for l = 0 to Array.length d.lock_clocks - 1 do
    d.lock_clocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
  done;
  if Policy.uclock then begin
    for l = 0 to Array.length d.lock_uclocks - 1 do
      d.lock_uclocks.(l) <- Snap.Dec.option dec (fun () -> Vc.decode dec ~size:n)
    done;
    let lock_lr = Snap.Dec.int_array_n dec (Array.length d.lock_lr) in
    Array.iteri
      (fun l lr ->
        Snap.expect (lr >= -1 && lr < n) "lock releaser out of range";
        d.lock_lr.(l) <- lr)
      lock_lr
  end;
  decode_locations dec d;
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with metrics }

end

include Make (struct
  let name = "o1"
  let uclock = false
end)
