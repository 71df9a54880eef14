module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Snap = Ft_core.Snap
module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Tb = Ft_trace.Trace_binary
module Checkpoint = Ft_snapshot.Checkpoint
module Fault = Ft_fault.Fault

type outcome = {
  result : Detector.result;
  resumed_at : int option;
  resume_error : string option;
  checkpoints_written : int;
}

(* The detector a run drives — one engine, or a sharded ensemble — behind
   closures, so resume, checkpoint and failure handling are written once. *)
type det = {
  handle : int -> Event.t -> unit;
  snapshot : unit -> Snap.t;
  result : unit -> Detector.result;
  stop : unit -> unit;
}

let single (module D : Detector.S) config snap =
  let d = match snap with None -> D.create config | Some s -> D.restore config s in
  {
    handle = D.handle d;
    snapshot = (fun () -> D.snapshot d);
    result = (fun () -> D.result d);
    stop = ignore;
  }

let sharded ~engine ~shards config snap =
  let sh =
    match snap with
    | None -> Sharded.create ~engine ~shards config
    | Some s -> Sharded.restore ~engine ~shards config s
  in
  {
    handle = Sharded.handle sh;
    snapshot = (fun () -> Sharded.snapshot sh);
    result = (fun () -> Sharded.result sh);
    stop = (fun () -> Sharded.stop sh);
  }

let shape = function 0 -> "a single stream" | k -> Printf.sprintf "%d shards" k

(* [want] is the metadata this run would write at its start. *)
let validate_meta (m : Checkpoint.meta) ~(want : Checkpoint.meta) ~nevents =
  if m.Checkpoint.engine <> want.Checkpoint.engine then
    Error
      (Printf.sprintf "checkpoint was taken by engine %s, not %s"
         (Engine.name m.Checkpoint.engine) (Engine.name want.Checkpoint.engine))
  else if m.Checkpoint.sampler <> want.Checkpoint.sampler then
    Error
      (Printf.sprintf "checkpoint was taken with sampler %s, not %s" m.Checkpoint.sampler
         want.Checkpoint.sampler)
  else if m.Checkpoint.shards <> want.Checkpoint.shards then
    Error
      (Printf.sprintf "checkpoint was taken with %s, not %s" (shape m.Checkpoint.shards)
         (shape want.Checkpoint.shards))
  else if
    m.Checkpoint.nthreads <> want.Checkpoint.nthreads
    || m.Checkpoint.nlocks <> want.Checkpoint.nlocks
    || m.Checkpoint.nlocs <> want.Checkpoint.nlocs
  then Error "checkpoint universe does not match the trace"
  else if m.Checkpoint.clock_size <> want.Checkpoint.clock_size then
    Error "checkpoint clock size does not match"
  else if m.Checkpoint.next_index > nevents then
    Error "checkpoint lies beyond the end of the trace"
  else Ok ()

let warn_fallback cp_path msg =
  Printf.eprintf "warning: cannot resume from %s: %s; replaying from the start\n%!" cp_path
    msg

let ( let* ) = Result.bind

(* The shared body of both entry points.  [position meta] moves the input to
   a checkpoint's resume point and [rewind ()] back to the start after a
   failed resume; [feed det ~start ~due ~save] handles events [start..]
   and calls [save] wherever [due] says a checkpoint is owed.  A shard
   failure ends the run with [Error] and its diagnostic, after every domain
   is joined and without a checkpoint of the failed state. *)
let run ~engine ~racy_fastpath ~sampler ~clock_size ~shards ~checkpoint ~checkpoint_every
    ~resume ~nthreads ~nlocks ~nlocs ~nevents ~position ~rewind ~feed =
  let clock_size = Option.value clock_size ~default:nthreads in
  if clock_size < nthreads then Error "clock size below thread count"
  else begin
    let config = { Detector.nthreads; nlocks; nlocs; clock_size; sampler } in
    let make =
      match shards with
      | None -> single (Engine.detector ~racy_fastpath engine) config
      | Some k ->
        if racy_fastpath then invalid_arg "Runner: racy_fastpath needs a single stream";
        sharded ~engine ~shards:k config
    in
    let meta ~next_index ~byte_offset =
      {
        Checkpoint.engine;
        sampler = Sampler.name sampler;
        nthreads;
        nlocks;
        nlocs;
        clock_size;
        shards = Option.value shards ~default:0;
        next_index;
        byte_offset;
      }
    in
    let try_resume cp_path =
      let* cp = Checkpoint.load cp_path in
      let m = cp.Checkpoint.meta in
      let* () = validate_meta m ~want:(meta ~next_index:0 ~byte_offset:(-1)) ~nevents in
      let* det =
        try Ok (make (Some cp.Checkpoint.detector))
        with Snap.Corrupt msg -> Error ("corrupt checkpoint payload: " ^ msg)
      in
      match position m with
      | Ok () -> Ok (det, m.Checkpoint.next_index)
      | Error _ as e ->
        det.stop ();
        e
    in
    let* det, start, resumed_at, resume_error =
      match resume with
      | None -> Ok (make None, 0, None, None)
      | Some cp_path -> (
        match try_resume cp_path with
        | Ok (det, idx) -> Ok (det, idx, Some idx, None)
        | Error msg ->
          warn_fallback cp_path msg;
          let* () = rewind () in
          Ok (make None, 0, None, Some msg))
    in
    let written = ref 0 in
    (* no checkpoint at the very end: it could not shorten anything *)
    let due idx =
      checkpoint <> None && checkpoint_every > 0 && idx mod checkpoint_every = 0
      && idx < nevents
    in
    let save ~next_index ~byte_offset =
      match checkpoint with
      | None -> ()
      | Some cp_path -> (
        (* flushes first: a failed shard raises here, before any write *)
        let detector = det.snapshot () in
        (* a faulted checkpoint write never fails the analysis:
           [Checkpoint.save] left the previous good file in place, so the
           only cost is a longer replay after a crash *)
        try
          Checkpoint.save cp_path
            { Checkpoint.meta = meta ~next_index ~byte_offset; detector };
          incr written
        with Fault.Injected _ as e ->
          Printf.eprintf "racedet: checkpoint write faulted (%s); continuing\n%!"
            (Printexc.to_string e))
    in
    let outcome =
      match
        let* () = feed det ~start ~due ~save in
        Ok (det.result ())
      with
      | r -> r
      | exception Failure msg -> Error msg
      | exception (Fault.Injected _ as e) -> Error (Printexc.to_string e)
    in
    (* every domain is joined however the run ended; a shard failure's own
       diagnostic, which [stop] re-raises, wins over how it surfaced *)
    match ((try Ok (det.stop ()) with Failure msg -> Error msg), outcome) with
    | Error msg, _ | Ok (), Error msg -> Error msg
    | Ok (), Ok result ->
      Ok { result; resumed_at; resume_error; checkpoints_written = !written }
  end

let analyze_file ~engine ?(racy_fastpath = false) ?(sampler = Sampler.all) ?clock_size
    ?shards ?checkpoint ?(checkpoint_every = 0) ?resume path =
  match (try Ok (open_in_bin path) with Sys_error msg -> Error msg) with
  | Error msg -> Error msg
  | Ok ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let* reader = Tb.open_channel ic in
    let h = Tb.header reader in
    let data_start = Tb.byte_pos reader in
    let position (m : Checkpoint.meta) =
      if m.Checkpoint.byte_offset >= 0 then
        Tb.seek reader ~byte_offset:m.Checkpoint.byte_offset
          ~next_index:m.Checkpoint.next_index
      else begin
        (* no recorded offset: decode and discard the prefix *)
        let rec skip () =
          if Tb.events_read reader >= m.Checkpoint.next_index then Ok ()
          else
            match Tb.next reader with
            | Error msg -> Error msg
            | Ok None -> Error "checkpoint lies beyond the end of the trace"
            | Ok (Some _) -> skip ()
        in
        skip ()
      end
    in
    (* a failed prefix skip may have consumed events *)
    let rewind () =
      Result.map_error
        (fun m -> "cannot rewind for full replay: " ^ m)
        (Tb.seek reader ~byte_offset:data_start ~next_index:0)
    in
    (* batch-decoded hot loop: no per-event boxing between the wire and the
       detector.  [Tb.batch_end] gives the byte offset after each event, so
       checkpoint cadence is independent of where batch boundaries fall. *)
    let feed det ~start:_ ~due ~save =
      let batch = Tb.create_batch () in
      let rec loop () =
        let* n = Tb.read_batch reader batch in
        if n = 0 then Ok ()
        else begin
          let start = Tb.events_read reader - n in
          for j = 0 to n - 1 do
            det.handle (start + j) (Tb.batch_event batch j);
            let idx = start + j + 1 in
            if due idx then save ~next_index:idx ~byte_offset:(Tb.batch_end batch j)
          done;
          loop ()
        end
      in
      loop ()
    in
    run ~engine ~racy_fastpath ~sampler ~clock_size ~shards ~checkpoint ~checkpoint_every
      ~resume ~nthreads:h.Tb.nthreads ~nlocks:h.Tb.nlocks ~nlocs:h.Tb.nlocs
      ~nevents:h.Tb.nevents ~position ~rewind ~feed

let analyze_trace ~engine ?(racy_fastpath = false) ?(sampler = Sampler.all) ?clock_size
    ?shards ?checkpoint ?(checkpoint_every = 0) ?resume trace =
  let nevents = Trace.length trace in
  let feed det ~start ~due ~save =
    for i = start to nevents - 1 do
      det.handle i (Trace.get trace i);
      if due (i + 1) then save ~next_index:(i + 1) ~byte_offset:(-1)
    done;
    Ok ()
  in
  run ~engine ~racy_fastpath ~sampler ~clock_size ~shards ~checkpoint ~checkpoint_every
    ~resume ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks
    ~nlocs:trace.Trace.nlocs ~nevents
    ~position:(fun _ -> Ok ())
    ~rewind:(fun () -> Ok ())
    ~feed
