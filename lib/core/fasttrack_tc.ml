module E = Ft_trace.Event
module Vc = Vector_clock
module Tc = Tree_clock

type read_state = {
  mutable repoch : Epoch.t;
  mutable rindex : int;  (* trace index behind [repoch] *)
  mutable rvc : Vc.t option;
  mutable rvc_index : int array;  (* per-thread indices, allocated with [rvc] *)
}

type t = {
  csize : int;
  clocks : Tc.t array;
  lock_clocks : Tc.t option array;
  writes : Epoch.t array;
  w_index : int array;
  reads : read_state option array;
  metrics : Metrics.t;
  mutable races : Race.t list;
}

let name = "fasttrack-tc"

let create (cfg : Detector.config) =
  let n = cfg.Detector.clock_size in
  let clocks =
    Array.init n (fun i ->
        let tc = Tc.create n ~owner:i in
        Tc.inc tc 1;
        tc)
  in
  {
    csize = n;
    clocks;
    lock_clocks = Array.make (Stdlib.max 1 cfg.Detector.nlocks) None;
    writes = Array.make (Stdlib.max 1 cfg.Detector.nlocs) Epoch.none;
    w_index = Array.make (Stdlib.max 1 cfg.Detector.nlocs) (-1);
    reads = Array.make (Stdlib.max 1 cfg.Detector.nlocs) None;
    metrics = Metrics.create ();
    races = [];
  }

let declare d index tid x ~with_write ~with_read ~prior =
  d.metrics.Metrics.races <- d.metrics.Metrics.races + 1;
  let prior = if prior < 0 then None else Some prior in
  d.races <- Race.make ~index ~thread:tid ~loc:x ~with_write ~with_read ?prior () :: d.races

let epoch_leq_tc e tc = Epoch.time e <= Tc.get tc (Epoch.tid e)

let read_state d x =
  match d.reads.(x) with
  | Some r -> r
  | None ->
    let r = { repoch = Epoch.none; rindex = -1; rvc = None; rvc_index = [||] } in
    d.reads.(x) <- Some r;
    r

let lock_clock d l =
  match d.lock_clocks.(l) with
  | Some tc -> tc
  | None ->
    (* the owner is fixed up by the first monotone/force copy *)
    let tc = Tc.create d.csize ~owner:0 in
    d.lock_clocks.(l) <- Some tc;
    tc

let handle d index (e : E.t) =
  let m = d.metrics in
  m.Metrics.events <- m.Metrics.events + 1;
  let t = e.E.thread in
  let ct = d.clocks.(t) in
  match e.E.op with
  | E.Read x ->
    m.Metrics.reads <- m.Metrics.reads + 1;
    let own = Epoch.make ~time:(Tc.get ct t) ~tid:t in
    let r = read_state d x in
    let same_epoch =
      match r.rvc with
      | None -> Epoch.equal r.repoch own
      | Some rv -> Vc.get rv t = Tc.get ct t
    in
    if same_epoch then m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else begin
      m.Metrics.race_checks <- m.Metrics.race_checks + 1;
      if not (epoch_leq_tc d.writes.(x) ct) then
        declare d index t x ~with_write:true ~with_read:false ~prior:d.w_index.(x);
      match r.rvc with
      | Some rv ->
        Vc.set rv t (Tc.get ct t);
        r.rvc_index.(t) <- index
      | None ->
        if Epoch.equal r.repoch Epoch.none || epoch_leq_tc r.repoch ct then begin
          r.repoch <- own;
          r.rindex <- index
        end
        else begin
          let rv = Vc.create d.csize in
          let ri = Array.make d.csize (-1) in
          Vc.set rv (Epoch.tid r.repoch) (Epoch.time r.repoch);
          ri.(Epoch.tid r.repoch) <- r.rindex;
          Vc.set rv t (Tc.get ct t);
          ri.(t) <- index;
          r.rvc <- Some rv;
          r.rvc_index <- ri
        end
    end
  | E.Write x ->
    m.Metrics.writes <- m.Metrics.writes + 1;
    let own = Epoch.make ~time:(Tc.get ct t) ~tid:t in
    if Epoch.equal d.writes.(x) own then
      m.Metrics.same_epoch_hits <- m.Metrics.same_epoch_hits + 1
    else begin
      m.Metrics.race_checks <- m.Metrics.race_checks + 2;
      let pw = if epoch_leq_tc d.writes.(x) ct then -1 else d.w_index.(x) in
      let pr =
        match d.reads.(x) with
        | None -> -1
        | Some r -> (
          match r.rvc with
          | None -> if epoch_leq_tc r.repoch ct then -1 else r.rindex
          | Some rv ->
            m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
            let rec stale i =
              if i >= Vc.size rv then -1
              else if Vc.get rv i > Tc.get ct i then r.rvc_index.(i)
              else stale (i + 1)
            in
            stale 0)
      in
      let with_write = pw >= 0 and with_read = pr >= 0 in
      if with_write || with_read then
        declare d index t x ~with_write ~with_read
          ~prior:(if with_write then pw else pr);
      d.writes.(x) <- own;
      d.w_index.(x) <- index;
      match d.reads.(x) with
      | Some r when r.rvc <> None && not with_read ->
        r.rvc <- None;
        r.repoch <- Epoch.none
      | Some _ | None -> ()
    end
  | E.Acquire l | E.Acquire_load l ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    (match d.lock_clocks.(l) with
    | None -> m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
    | Some ltc ->
      let changed = Tc.join_count ~into:ct ltc in
      m.Metrics.entries_traversed <- m.Metrics.entries_traversed + changed;
      if changed = 0 then m.Metrics.acquires_skipped <- m.Metrics.acquires_skipped + 1
      else m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1)
  | E.Release l ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    let ltc = lock_clock d l in
    if Tc.get ltc t < Tc.get ct t then begin
      m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
      Tc.monotone_copy ~into:ltc ct
    end;
    Tc.inc ct 1
  | E.Release_store l ->
    (* without a preceding acquire, the lock clock need not be ⊑ the
       thread's; fall back to the unconditional copy *)
    m.Metrics.releases <- m.Metrics.releases + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    Tc.force_copy ~into:(lock_clock d l) ct;
    Tc.inc ct 1
  | E.Fork u ->
    m.Metrics.releases <- m.Metrics.releases + 1;
    m.Metrics.releases_processed <- m.Metrics.releases_processed + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    Tc.join ~into:d.clocks.(u) ct;
    Tc.inc ct 1
  | E.Join u ->
    m.Metrics.acquires <- m.Metrics.acquires + 1;
    m.Metrics.vc_full_ops <- m.Metrics.vc_full_ops + 1;
    Tc.join ~into:ct d.clocks.(u)

let result d =
  { Detector.engine = name; races = List.rev d.races; metrics = d.metrics }

let races_rev d = d.races

(* Accesses never touch thread clocks here, so sharding needs no replay. *)
let note_sampled (_ : t) (_ : int) = ()

let encode_read_state enc (r : read_state) =
  Epoch.encode enc r.repoch;
  Snap.Enc.int enc r.rindex;
  Snap.Enc.option enc
    (fun rv ->
      Vc.encode enc rv;
      Snap.Enc.int_array enc r.rvc_index)
    r.rvc

let decode_read_state dec ~size =
  let repoch = Epoch.decode dec in
  let rindex = Snap.Dec.int dec in
  match
    Snap.Dec.option dec (fun () ->
        let rv = Vc.decode dec ~size in
        let ri = Snap.Dec.int_array_n dec size in
        (rv, ri))
  with
  | None -> { repoch; rindex; rvc = None; rvc_index = [||] }
  | Some (rv, ri) -> { repoch; rindex; rvc = Some rv; rvc_index = ri }

let snapshot d =
  let enc = Snap.Enc.create () in
  Array.iter (Tc.encode enc) d.clocks;
  Array.iter (fun c -> Snap.Enc.option enc (Tc.encode enc) c) d.lock_clocks;
  (* per-location state in one keyed section: untouched locations are free *)
  Snap.Enc.keyed enc ~n:(Array.length d.writes)
    ~is_default:(fun x ->
      Epoch.equal d.writes.(x) Epoch.none && d.w_index.(x) = -1 && d.reads.(x) = None)
    (fun x ->
      Epoch.encode enc d.writes.(x);
      Snap.Enc.int enc d.w_index.(x);
      Snap.Enc.option enc (encode_read_state enc) d.reads.(x));
  Metrics.encode enc d.metrics;
  Race.encode_list enc d.races;
  Snap.Enc.to_snap enc

let restore (cfg : Detector.config) s =
  let d = create cfg in
  let dec = Snap.Dec.of_snap s in
  let n = d.csize in
  for t = 0 to Array.length d.clocks - 1 do
    d.clocks.(t) <- Tc.decode dec ~size:n
  done;
  for l = 0 to Array.length d.lock_clocks - 1 do
    d.lock_clocks.(l) <- Snap.Dec.option dec (fun () -> Tc.decode dec ~size:n)
  done;
  Snap.Dec.keyed dec ~n:(Array.length d.writes) (fun x ->
      d.writes.(x) <- Epoch.decode dec;
      d.w_index.(x) <- Snap.Dec.int dec;
      d.reads.(x) <- Snap.Dec.option dec (fun () -> decode_read_state dec ~size:n));
  let metrics = Metrics.decode dec in
  d.races <- Race.decode_list dec;
  Snap.Dec.finish dec;
  { d with metrics }
