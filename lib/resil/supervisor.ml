(** Retrying supervisor; see the interface for the state machine. *)

type attempt = {
  attempt : int;
  engine : Tgds.Chase.engine;
  fault : string;
  resumed_from : int option;
  backoff_ms : float;
}

type attempt_log = attempt list
type diagnostic = { message : string; attempts : attempt_log }

type outcome =
  | Completed of Tgds.Chase.result
  | Recovered of Tgds.Chase.result * attempt_log
  | Degraded of Tgds.Chase.result * attempt_log
  | Failed of diagnostic

exception Fatal of string

let run ?(engine = `Indexed) ?(policy = Tgds.Chase.Oblivious) ?budget
    ?(checkpoint_every = 1) ?checkpoint_path ?resume_from ?(retries = 2)
    ?(backoff_ms = 50.) ?(max_backoff_ms = 1000.) ?(sleep = Unix.sleepf)
    ?clock ?(fault_plan = Fault.none) ?obs sigma db =
  (* Restart-from-scratch resets the null supply to where this run found
     it, so every attempt invents the same null ids an uninterrupted run
     would (resume does the same from its snapshot). *)
  let null0 = Relational.Term.null_count () in
  let last_ck : Checkpoint.t option ref = ref resume_from in
  let log = ref [] in
  let total_attempts = ref 0 in
  let ck_every = max 1 checkpoint_every in
  let on_pass ~level ~saturated take =
    if saturated || level mod ck_every = 0 then begin
      let s = take () in
      last_ck := Some s;
      Option.iter (fun p -> Checkpoint.save p s) checkpoint_path
    end
  in
  (* Up to [retries + 1] attempts on [eng]; [None] when all failed. *)
  let run_engine eng =
    let rec go k =
      let started_from =
        Option.map (fun s -> s.Tgds.Chase.snap_level) !last_ck
      in
      incr total_attempts;
      let trig = Fault.trigger_for fault_plan ~attempt:!total_attempts in
      match
        Fault.with_trigger ?clock trig (fun () ->
            match !last_ck with
            | Some s ->
                Tgds.Chase.resume ~engine:eng ?budget ?obs ~on_pass sigma s
            | None ->
                Relational.Term.set_null_count null0;
                Tgds.Chase.run ~engine:eng ~policy ?budget ?obs ~on_pass sigma
                  db)
      with
      | r -> Some r
      | exception Invalid_argument msg ->
          (* a violated precondition is deterministic — retrying or
             degrading cannot change the verdict, so fail fast *)
          raise (Fatal (Printf.sprintf "precondition violated: %s" msg))
      | exception e ->
          let fault =
            match e with
            | Fault.Injected (point, hit) ->
                Printf.sprintf "injected fault at %s (hit %d)" point hit
            | e -> Printexc.to_string e
          in
          let retry = k <= retries in
          let backoff =
            if retry then
              Float.min max_backoff_ms (backoff_ms *. (2. ** float_of_int (k - 1)))
            else 0.
          in
          log :=
            {
              attempt = !total_attempts;
              engine = eng;
              fault;
              resumed_from = started_from;
              backoff_ms = backoff;
            }
            :: !log;
          if retry then begin
            if backoff > 0. then sleep (backoff /. 1000.);
            go (k + 1)
          end
          else None
    in
    go 1
  in
  let attempts () = List.rev !log in
  match
    (* degradation ladder: Indexed → Naive *)
    let degrade = function `Indexed -> Some `Naive | `Naive -> None in
    let rec attempt eng =
      match run_engine eng with
      | Some r -> Some (r, eng)
      | None -> Option.bind (degrade eng) attempt
    in
    attempt engine
  with
  | Some (r, eng) ->
      if !log = [] then Completed r
      else if eng = engine then Recovered (r, attempts ())
      else Degraded (r, attempts ())
  | None ->
      Failed
        {
          message =
            Printf.sprintf "all %d attempts exhausted" !total_attempts;
          attempts = attempts ();
        }
  | exception Fatal message -> Failed { message; attempts = attempts () }
  | exception e ->
      (* the supervisor's contract: no escaped exceptions *)
      Failed { message = Printexc.to_string e; attempts = attempts () }
