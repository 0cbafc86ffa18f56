(* Host-time spans recorded by the benchmark around its calls into the
   library. Spans live in memory and are written out once, at exit, as a
   Chrome trace ("Trace Event Format", load it in chrome://tracing or
   Perfetto). When recording is off, [with_span] is one branch. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** 0 = top level *)
  name : string;
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let with_span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let s =
      {
        id = !next_id;
        parent = (match !stack with p :: _ -> p | [] -> 0);
        name;
        start_ns = now_ns ();
        stop_ns = 0;
      }
    in
    stack := s.id :: !stack;
    let finish () =
      s.stop_ns <- now_ns ();
      stack := List.tl !stack;
      recorded := s :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let all () = List.rev !recorded

(* Self time of each span name in seconds: every span's duration minus
   the durations of its direct children, summed per name. Spans nest
   strictly (they come from one call stack), so the children of a span
   lie inside its interval. *)
let self_seconds spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          ((s.stop_ns - s.start_ns)
          + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop_ns - s.start_ns
        - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
      in
      Hashtbl.replace by_name s.name
        (float_of_int self *. 1e-9
        +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    spans;
  by_name

let write_chrome_trace ~path ~metrics spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = match spans with s :: _ -> s.start_ns | [] -> 0 in
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
            (if i = 0 then "" else ",")
            s.name
            (float_of_int (s.start_ns - t0) /. 1e3)
            (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
            s.id s.parent)
        spans;
      output_string oc "],\n\"metrics\":{";
      List.iteri
        (fun i (name, v, unit) ->
          Printf.fprintf oc "%s\n%S:{\"value\":%.17g,\"unit\":%S}"
            (if i = 0 then "" else ",")
            name v unit)
        metrics;
      output_string oc "}}\n")
