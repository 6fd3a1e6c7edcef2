(* Out-of-process load generator for the composite-object benchmark.

   It starts `orion serve DB --wal --domains 2 --group-commit-window 500
   --socket S` as a child process and drives one closed-loop workload
   against it over the Unix socket, with two Orion_client connections
   (each waits for its reply before sending the next request):

   - assembly-build: each connection appends Parts to its own
     Assemblies, one Part per transaction, 16 per root.  Loads the WAL,
     group commit, tx commit, object creation and the server core lock;
     no lock waits, no MVCC reads, no traversal in the window.
   - assembly-contend: 8 shared Assemblies of 8 exclusive Parts, plus 4
     Parts each shared by two Assemblies.  A transaction locks A for
     update and B for read, increments a counter on A through an
     evaluated set-attr and traverses B live.  Loads the lock table
     (blocks, wakeups, deadlock victims), server park/resume, DSL
     evaluation and live traversal.
   - snapshot-browse: 16 Node trees (depth 3, fan-out 5: 156 nodes).
     One connection browses whole trees inside MVCC snapshots while the
     other stamps a tag on 8 nodes of one tree per transaction.  Loads
     MVCC version reads, snapshot traversal and large reply encoding.

   A run is a sequence of rounds, each on a fresh server: set up the
   data (ending with a checkpoint, so the log starts empty), run a
   fixed number of transactions (so every round builds a log of the
   same size), verify the outcome with snapshot browses, close the
   connections, SIGKILL the server, time `orion recover` on its store
   and log, and `orion fsck` the recovered store.  Rounds repeat until
   --seconds is spent.  Rates and times are medians over rounds;
   latency percentiles pool the samples of all rounds.  Before each
   round's server starts, three fixed probes time the machine, and
   the timed end-to-end metrics are scaled to a reference machine
   (see "machine-speed probes" below).

   Every round checks the workload's oracles: acknowledged makes and
   counter increments are all there, snapshots see one tag and the
   whole tree, and recovery restores exactly the acknowledged commits
   into a consistent store that fsck accepts.  A failed oracle fails
   the run: the result says "correct": false and the exit code is 1.
   An error reply other than a deadlock abort or lock timeout (which
   are retried) counts as a failed operation.

   With --trace 1 the rounds alternate traced and untraced.  Traced
   rounds keep a span per client call, fetch the server's Stats at the
   start and end of the window and after the verification browses, and
   sample /proc/<pid>/{io,stat,status} around the window; the output
   metrics are then the per-layer ones plus the traced/untraced
   throughput ratio.

   Usage (from the repository root, normally through perfbench/run.py):
     loadgen.exe --workload W --seed N --seconds S --trace 0|1
                 --orion PATH
   The last line on stdout is the result object; a table of every
   metric with its unit goes to stderr, and the full record to
   .perfbench-run/results. *)

module Client = Orion_client
module Message = Orion_protocol.Message
module Addr = Orion_protocol.Addr
module Oid = Orion_core.Oid
module Value = Orion_core.Value
module Obs = Orion_obs.Metrics

let connections = 2
let serve_flags = [ "--wal"; "--domains"; "2"; "--group-commit-window"; "500" ]
let retry_budget = 20
let min_rounds = 3

(* Each round's window is short (256 transactions): every sync
   rewrites the whole log, so a longer window makes each commit write
   more and puts run-to-run disk noise into every figure.  Rounds are
   many instead.  The assembly workloads take their read metrics from
   the verification browses, which repeat passes up to this many a
   round. *)
let verify_browses = 128

(* Scratch space for server databases and sockets, under the working
   directory: the socket path is passed relative to it, which keeps it
   short whatever the checkout path. *)
let scratch = ".perfbench-run"

let now = Unix.gettimeofday

(* ---------- failures ---------- *)

(* An oracle violation: the server returned a wrong answer. *)
exception Oracle of string

let oracle fmt = Printf.ksprintf (fun s -> raise (Oracle s)) fmt

(* Set when any thread hits a fatal error, so the others stop early. *)
let stop = Atomic.make false

(* ---------- statistics ---------- *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* ---------- JSON output ---------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec add_json buf = function
  | Num f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Str s -> Buffer.add_string buf ("\"" ^ Bench_meta.escape s ^ "\"")
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf (Str k);
          Buffer.add_char buf ':';
          add_json buf v)
        kvs;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  add_json buf j;
  Buffer.contents buf

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* ---------- child processes ---------- *)

(* Every child still running; killed and reaped at exit whatever path
   the run takes out. *)
let children : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
   with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  children := List.filter (( <> ) pid) !children

let kill_child pid =
  if List.mem pid !children then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap pid
  end

let () =
  at_exit (fun () -> List.iter kill_child !children);
  let bail _ = exit 2 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail)

let spawn prog args ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null out out)
  in
  children := pid :: !children;
  pid

(* Run a command to completion: its exit code, its output, its wall time. *)
let run_tool prog args ~log =
  let t0 = now () in
  let pid = spawn prog args ~log in
  let _, status = Unix.waitpid [] pid in
  let elapsed = now () -. t0 in
  children := List.filter (( <> ) pid) !children;
  let code = match status with Unix.WEXITED c -> c | _ -> 128 in
  (code, read_file log, elapsed)

(* ---------- machine-speed probes ---------- *)

(* The shared machines this benchmark runs on drift in speed by 10-30%
   over minutes, and that drift moves every timed metric of a run
   together: the server's transactions, the separate `orion recover`
   process and set-up alike.  Before it starts each round's server,
   the generator times three fixed probes that exercise what the
   server spends its time on -- CPU, a process-to-process round trip
   and a small fsync -- and compares them with their times on a
   reference machine (a 2-vCPU x86-64 VM, Xeon at 2.0 GHz).  The timed
   end-to-end metrics are scaled by the geometric mean of the three
   ratios, so they read as on the reference machine; the unscaled
   values are kept in the record.  The probes run before the server
   exists and do not touch it, so nothing the server does changes
   them. *)
type probes = { cpu_s : float; ipc_s : float; fsync_s : float }

let reference = { cpu_s = 6.2e-3; ipc_s = 9.5e-3; fsync_s = 1.9e-3 }

let probe_table = Array.init 65536 (fun i -> (i * 7919) land 65535)

(* A pointer-chasing loop over a 512 KiB table. *)
let probe_cpu () =
  let t0 = now () in
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to 2_000_000 do
    j := probe_table.(!j) lxor (!acc land 1023);
    acc := !acc + !j
  done;
  ignore (Sys.opaque_identity !acc : int);
  now () -. t0

(* 500 one-byte round trips through `cat` over two pipes. *)
let probe_ipc () =
  let to_r, to_w = Unix.pipe ~cloexec:true () in
  let from_r, from_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close to_r;
        Unix.close from_w)
      (fun () -> Unix.create_process "cat" [| "cat" |] to_r from_w Unix.stderr)
  in
  children := pid :: !children;
  let b = Bytes.make 1 'x' in
  let t0 = now () in
  for _ = 1 to 500 do
    ignore (Unix.write to_w b 0 1 : int);
    if Unix.read from_r b 0 1 <> 1 then failwith "the ipc probe's cat exited"
  done;
  let elapsed = now () -. t0 in
  Unix.close to_w;
  Unix.close from_r;
  reap pid;
  elapsed

(* 20 rewrites of one 8 KiB block, each followed by fsync. *)
let probe_fsync dir =
  let path = dir ^ "/probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let b = Bytes.make 8192 'x' in
  let t0 = now () in
  for _ = 1 to 20 do
    ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
    ignore (Unix.write fd b 0 8192 : int);
    Unix.fsync fd
  done;
  let elapsed = now () -. t0 in
  Unix.close fd;
  Sys.remove path;
  elapsed

let probe dir = { cpu_s = probe_cpu (); ipc_s = probe_ipc (); fsync_s = probe_fsync dir }

(* How much slower than the reference machine a round ran: above 1
   means slower. *)
let slowdown p =
  Float.exp
    ((Float.log (p.cpu_s /. reference.cpu_s)
     +. Float.log (p.ipc_s /. reference.ipc_s)
     +. Float.log (p.fsync_s /. reference.fsync_s))
    /. 3.)

(* ---------- /proc samples of the server ---------- *)

type proc = {
  write_bytes : int;  (* /proc/<pid>/io *)
  utime : int;  (* /proc/<pid>/stat, clock ticks *)
  stime : int;
  hwm_kb : int;  (* /proc/<pid>/status VmHWM *)
}

let field_of lines key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key ->
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          Scanf.sscanf_opt rest "%d" Fun.id
      | _ -> None)
    lines
  |> Option.value ~default:0

let sample_proc pid =
  let file f = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/%s" pid f)) in
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name: state is field 3, so
     utime (14) and stime (15) are the 12th and 13th. *)
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  {
    write_bytes = field_of (file "io") "write_bytes";
    utime = int_of_string fields.(11);
    stime = int_of_string fields.(12);
    hwm_kb = field_of (file "status") "VmHWM";
  }

(* /proc reports CPU time in USER_HZ ticks, which Linux fixes at 100. *)
let tick_ms = 10.

let client_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------- connections, spans and tallies ---------- *)

(* [phase] is "setup", "window" or "verify". *)
type span = { id : int; label : string; phase : string; conn : int; t0 : float; t1 : float }

(* What one connection did in one phase of a round. *)
type tally = {
  mutable commits : int;
  mutable attempts : int;  (* Begins, retries included *)
  mutable retries : int;
  mutable failed : int;
  mutable txn_ms : float list;
  mutable browses : int;
  mutable browse_ms : float list;
  mutable obj_reads : int;  (* Components_of / Ancestors_of calls *)
  mutable objs : int;  (* oids in their replies *)
  mutable errors : string list;
}

let fresh_tally () =
  {
    commits = 0;
    attempts = 0;
    retries = 0;
    failed = 0;
    txn_ms = [];
    browses = 0;
    browse_ms = [];
    obj_reads = 0;
    objs = 0;
    errors = [];
  }

let merge_tallies ts =
  let m = fresh_tally () in
  List.iter
    (fun t ->
      m.commits <- m.commits + t.commits;
      m.attempts <- m.attempts + t.attempts;
      m.retries <- m.retries + t.retries;
      m.failed <- m.failed + t.failed;
      m.txn_ms <- t.txn_ms @ m.txn_ms;
      m.browses <- m.browses + t.browses;
      m.browse_ms <- t.browse_ms @ m.browse_ms;
      m.obj_reads <- m.obj_reads + t.obj_reads;
      m.objs <- m.objs + t.objs;
      m.errors <- t.errors @ m.errors)
    ts;
  m

type conn = {
  idx : int;
  c : Client.t;
  mutable tracing : bool;
  mutable phase : string;
  mutable spans : span list;
  mutable cur : int;  (* id of the open txn/browse span *)
  mutable tally : tally;
}

let next_span_id = Atomic.make 1

(* Each client call is a [req.<name>] span under the open txn or browse
   span, sharing its id. *)
let call k name f =
  if not k.tracing then f ()
  else begin
    let t0 = now () in
    let finish () =
      k.spans <- { id = k.cur; label = "req." ^ name; phase = k.phase; conn = k.idx; t0; t1 = now () } :: k.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let objs_read k oids =
  k.tally.obj_reads <- k.tally.obj_reads + 1;
  k.tally.objs <- k.tally.objs + List.length oids;
  oids

let lock k root access = call k "lock_composite" (fun () -> Client.lock_composite k.c ~root access)

let make k ~cls ~parents ~attrs =
  call k "make" (fun () -> Client.make k.c ~cls ~parents ~attrs ())

let read_attr k oid attr = call k "read_attr" (fun () -> Client.read_attr k.c oid attr)
let eval k src = call k "eval" (fun () -> Client.eval k.c src)

let components_of k oid =
  objs_read k (call k "components_of" (fun () -> Client.components_of k.c oid))

let ancestors_of k oid =
  objs_read k (call k "ancestors_of" (fun () -> Client.ancestors_of k.c oid))

let open_span k =
  let id = Atomic.fetch_and_add next_span_id 1 in
  k.cur <- id;
  now ()

let close_span k name t0 =
  let t1 = now () in
  if k.tracing then k.spans <- { id = k.cur; label = name; phase = k.phase; conn = k.idx; t0; t1 } :: k.spans;
  t1

let note_failure k what =
  k.tally.failed <- k.tally.failed + 1;
  k.tally.errors <- what :: k.tally.errors

(* One closed-loop transaction.  [body] runs between Begin and Commit
   and is retried from a fresh Begin when the server aborts it as a
   deadlock victim or on lock timeout; the latency, Begin to the
   acknowledged Commit, includes the retries.  Any other error reply,
   or running out of retries, is a failed operation. *)
let transaction k body =
  let t = k.tally in
  let t0 = open_span k in
  let rec attempt budget =
    t.attempts <- t.attempts + 1;
    match
      call k "begin" (fun () -> ignore (Client.begin_tx k.c : int));
      let v = body () in
      call k "commit" (fun () -> Client.commit k.c);
      v
    with
    | v -> Some v
    | exception Client.Error ((Message.Conflict | Message.Timeout), _) when budget > 0 ->
        ignore (Client.notices k.c : Message.push list);
        t.retries <- t.retries + 1;
        attempt (budget - 1)
    | exception Client.Error (code, msg) ->
        note_failure k (Message.err_code_to_string code ^ ": " ^ msg);
        (try Client.abort k.c with Client.Error _ -> ());
        None
  in
  let result = attempt retry_budget in
  let t1 = close_span k "txn" t0 in
  if Option.is_some result then begin
    t.commits <- t.commits + 1;
    t.txn_ms <- ((t1 -. t0) *. 1000.) :: t.txn_ms
  end;
  result

(* One consistent read of a whole composite inside an MVCC snapshot. *)
let browse k body =
  let t = k.tally in
  let t0 = open_span k in
  match
    call k "begin_snapshot" (fun () -> ignore (Client.begin_snapshot k.c : int));
    body ();
    call k "end_snapshot" (fun () -> Client.end_snapshot k.c)
  with
  | () ->
      let t1 = close_span k "browse" t0 in
      t.browses <- t.browses + 1;
      t.browse_ms <- ((t1 -. t0) *. 1000.) :: t.browse_ms
  | exception Client.Error (code, msg) ->
      ignore (close_span k "browse" t0 : float);
      note_failure k (Message.err_code_to_string code ^ ": " ^ msg);
      (try Client.end_snapshot k.c with Client.Error _ -> ())

let obj_of what = function
  | Message.Obj oid -> oid
  | v -> failwith (Format.asprintf "%s: expected an object, got %a" what Message.pp_v v)

let int_of_value what = function
  | Value.Int n -> n
  | v -> oracle "%s: expected an integer, got %s" what (Value.to_string v)

let sorted_ints oids = List.sort compare (List.map Oid.to_int oids)

(* ---------- workloads ---------- *)

(* What a workload leaves for the round runner once its data is in
   place.  [drive] and [verify] run once per connection, each on its
   own thread. *)
type prepared = {
  drive : conn -> unit;
  verify : conn -> unit;
}

type workload = {
  name : string;
  reads_in_window : bool;
      (* read metrics come from the window's browses; otherwise from
         the verification browses after it *)
  ddl : string;
  prepare : Random.State.t -> conn -> prepared;
}

let setup_tx k f =
  call k "begin" (fun () -> ignore (Client.begin_tx k.c : int));
  let v = f () in
  call k "commit" (fun () -> Client.commit k.c);
  v

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* assembly-build: bottom-up creation.  Each connection owns
   [build_roots] Assemblies and appends 16 Parts to each in a seeded
   order, one Part per transaction; moving to a fresh root every 16
   parts bounds fan-out, which otherwise slows make and commit. *)
let build_parts_per_root = 16
let build_roots = 8

let assembly_build =
  {
    name = "assembly-build";
    reads_in_window = false;
    ddl =
      {|(make-class 'Part :attributes ((Seq :domain Integer)))
(make-class 'Assembly :attributes (
  (Parts :domain (set-of Part) :composite true :exclusive true :dependent true)))|};
    prepare =
      (fun rng k0 ->
        let roots =
          setup_tx k0 (fun () ->
              Array.init connections (fun _ ->
                  Array.init build_roots (fun _ -> make k0 ~cls:"Assembly" ~parents:[] ~attrs:[])))
        in
        let order =
          Array.init connections (fun _ -> shuffle rng (Array.init build_roots Fun.id))
        in
        let seqs =
          Array.init connections (fun _ ->
              Array.init (build_roots * build_parts_per_root) (fun _ -> Random.State.int rng 1_000_000))
        in
        (* Per connection and root: acknowledged makes, and the last
           acknowledged Part with its Seq. *)
        let acked = Array.init connections (fun _ -> Array.make build_roots 0) in
        let last = Array.init connections (fun _ -> Array.make build_roots None) in
        let drive k =
          let i = k.idx in
          Array.iteri
            (fun n r ->
              let root = roots.(i).(r) in
              for p = 0 to build_parts_per_root - 1 do
                if not (Atomic.get stop) then begin
                  let seq = seqs.(i).((n * build_parts_per_root) + p) in
                  match
                    transaction k (fun () ->
                        lock k root Message.Update;
                        make k ~cls:"Part" ~parents:[ (root, "Parts") ] ~attrs:[ ("Seq", Value.Int seq) ])
                  with
                  | Some part ->
                      acked.(i).(r) <- acked.(i).(r) + 1;
                      last.(i).(r) <- Some (part, seq)
                  | None -> ()
                end
              done)
            order.(i)
        in
        let verify k =
          let i = k.idx in
          for _ = 1 to verify_browses / (connections * build_roots) do
            Array.iteri
              (fun r root ->
                browse k (fun () ->
                    let parts = components_of k root in
                    if List.length parts <> acked.(i).(r) then
                      oracle "assembly-build: root %s has %d parts, %d makes acknowledged"
                        (Oid.to_string root) (List.length parts) acked.(i).(r);
                    match last.(i).(r) with
                    | None -> ()
                    | Some (part, seq) ->
                        let got = int_of_value "Seq" (read_attr k part "Seq") in
                        if got <> seq then
                          oracle "assembly-build: part %s has Seq %d, made with %d" (Oid.to_string part) got seq;
                        if sorted_ints (ancestors_of k part) <> [ Oid.to_int root ] then
                          oracle "assembly-build: part %s is not under its root only" (Oid.to_string part)))
              roots.(i)
          done
        in
        { drive; verify });
  }

(* assembly-contend: composite locking with shared components (§7).
   Each transaction locks A for update and B for read; the 4 shared
   Parts put shared component classes under the composite lock
   derivation too. *)
let contend_assemblies = 8
let contend_parts = 8
let contend_txns = 128

let assembly_contend =
  {
    name = "assembly-contend";
    reads_in_window = false;
    ddl =
      {|(make-class 'Part :attributes ((Seq :domain Integer)))
(make-class 'SharedPart :attributes ((Seq :domain Integer)))
(make-class 'Assembly :attributes (
  (Count :domain Integer)
  (Parts :domain (set-of Part) :composite true :exclusive true :dependent true)
  (Shared :domain (set-of SharedPart) :composite true :exclusive nil :dependent nil)))|};
    prepare =
      (fun rng k0 ->
        let n = contend_assemblies in
        let name a = Printf.sprintf "ca%d" a in
        (* Pair the Assemblies at random; each pair shares one Part. *)
        let perm = shuffle rng (Array.init n Fun.id) in
        let partner = Array.make n 0 in
        for m = 0 to (n / 2) - 1 do
          partner.(perm.(2 * m)) <- perm.((2 * m) + 1);
          partner.(perm.((2 * m) + 1)) <- perm.(2 * m)
        done;
        let asm, shared =
          setup_tx k0 (fun () ->
              let asm =
                Array.init n (fun a ->
                    obj_of "setup" (eval k0 (Printf.sprintf "(setq %s (make Assembly :Count 0))" (name a))))
              in
              Array.iter
                (fun root ->
                  for p = 0 to contend_parts - 1 do
                    ignore
                      (make k0 ~cls:"Part" ~parents:[ (root, "Parts") ] ~attrs:[ ("Seq", Value.Int p) ]
                        : Oid.t)
                  done)
                asm;
              let shared = Array.make n asm.(0) in
              for a = 0 to n - 1 do
                let b = partner.(a) in
                if a < b then begin
                  let s =
                    make k0 ~cls:"SharedPart"
                      ~parents:[ (asm.(a), "Shared"); (asm.(b), "Shared") ]
                      ~attrs:[ ("Seq", Value.Int a) ]
                  in
                  shared.(a) <- s;
                  shared.(b) <- s
                end
              done;
              (asm, shared))
        in
        let picks =
          Array.init connections (fun _ ->
              Array.init contend_txns (fun _ ->
                  let a = Random.State.int rng n in
                  let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
                  (a, b)))
        in
        let components = contend_parts + 1 in
        (* Acknowledged increments per connection and Assembly: the
           lost-update oracle compares their sum with each counter. *)
        let incs = Array.init connections (fun _ -> Array.make n 0) in
        let drive k =
          Array.iter
            (fun (a, b) ->
              if not (Atomic.get stop) then
                match
                  transaction k (fun () ->
                      lock k asm.(a) Message.Update;
                      lock k asm.(b) Message.Read;
                      let c = int_of_value "Count" (read_attr k asm.(a) "Count") in
                      ignore (eval k (Printf.sprintf "(set-attr %s Count %d)" (name a) (c + 1)) : Message.v);
                      let got = List.length (components_of k asm.(b)) in
                      if got <> components then
                        oracle "assembly-contend: live components-of saw %d of %d components" got components)
                with
                | Some () -> incs.(k.idx).(a) <- incs.(k.idx).(a) + 1
                | None -> ())
            picks.(k.idx)
        in
        let verify k =
          for _ = 1 to verify_browses / contend_assemblies do
            for a = 0 to n - 1 do
              if a mod connections = k.idx then
                browse k (fun () ->
                    let expected = Array.fold_left (fun acc row -> acc + row.(a)) 0 incs in
                    let got = int_of_value "Count" (read_attr k asm.(a) "Count") in
                    if got <> expected then
                      oracle "assembly-contend: lost update on %s: Count %d, %d increments acknowledged"
                        (name a) got expected;
                    let comps = List.length (components_of k asm.(a)) in
                    if comps <> components then
                      oracle "assembly-contend: %s has %d components, expected %d" (name a) comps components;
                    if sorted_ints (ancestors_of k shared.(a)) <> List.sort compare [ Oid.to_int asm.(a); Oid.to_int asm.(partner.(a)) ]
                    then oracle "assembly-contend: shared part of %s has the wrong parents" (name a))
            done
          done
        in
        { drive; verify });
  }

(* snapshot-browse: consistent reads of whole composites.  Connection 0
   browses, connection 1 writes; the browser runs until the writer has
   committed its fixed count. *)
let browse_trees = 16
let browse_fanout = 5
let browse_nodes = 156 (* 1 + 5 + 25 + 125: depth 3 below the root *)
let browse_first_leaf = 31
let browse_stamped = 8
let browse_writer_txns = 128

let snapshot_browse =
  {
    name = "snapshot-browse";
    reads_in_window = true;
    ddl =
      {|(make-class 'Node :attributes (
  (Tag :domain Integer)
  (Kids :domain (set-of Node) :composite true :exclusive true :dependent true)))|};
    prepare =
      (fun rng k0 ->
        let node t i = Printf.sprintf "t%dn%d" t i in
        (* Breadth-first numbering: node i's children are 5i+1 .. 5i+5. *)
        let tree_program t =
          String.concat "\n"
            (List.init browse_nodes (fun i ->
                 if i = 0 then Printf.sprintf "(setq %s (make Node :Tag 0))" (node t 0)
                 else
                   Printf.sprintf "(setq %s (make Node :Tag 0 :parent ((%s Kids))))" (node t i)
                     (node t ((i - 1) / browse_fanout))))
        in
        for t = 0 to browse_trees - 1 do
          setup_tx k0 (fun () -> ignore (eval k0 (tree_program t) : Message.v))
        done;
        let lookup t i = obj_of "setup" (eval k0 (node t i)) in
        let roots = Array.init browse_trees (fun t -> lookup t 0) in
        let stamped =
          Array.init browse_trees (fun _ ->
              Array.sub (shuffle rng (Array.init (browse_nodes - 1) (( + ) 1))) 0 browse_stamped)
        in
        let stamped_oids = Array.mapi (fun t ids -> Array.map (lookup t) ids) stamped in
        let leaves =
          Array.init browse_trees (fun t ->
              lookup t (browse_first_leaf + Random.State.int rng (browse_nodes - browse_first_leaf)))
        in
        let writer_picks = Array.init browse_writer_txns (fun _ -> Random.State.int rng browse_trees) in
        let reader_picks = Array.init 4096 (fun _ -> Random.State.int rng browse_trees) in
        let stamps = Array.make browse_trees 0 in
        let writer_done = Atomic.make false in
        let check_tree k t =
          let comps = components_of k roots.(t) in
          let distinct = List.sort_uniq compare (sorted_ints comps) in
          if List.length distinct <> browse_nodes - 1 || List.mem (Oid.to_int roots.(t)) distinct then
            oracle "snapshot-browse: tree %d seen with %d of %d nodes" t (List.length distinct + 1) browse_nodes;
          let tags = Array.map (fun oid -> int_of_value "Tag" (read_attr k oid "Tag")) stamped_oids.(t) in
          if Array.exists (( <> ) tags.(0)) tags then
            oracle "snapshot-browse: tree %d seen with mixed tags %s" t
              (String.concat "," (Array.to_list (Array.map string_of_int tags)));
          let ancestors = List.length (ancestors_of k leaves.(t)) in
          if ancestors <> 3 then oracle "snapshot-browse: leaf of tree %d has %d ancestors" t ancestors;
          tags.(0)
        in
        let drive k =
          if k.idx = 1 then begin
            Fun.protect
              ~finally:(fun () -> Atomic.set writer_done true)
              (fun () ->
                Array.iter
                  (fun t ->
                    if not (Atomic.get stop) then begin
                      let tag = stamps.(t) + 1 in
                      let program =
                        String.concat " "
                          (Array.to_list
                             (Array.map (fun i -> Printf.sprintf "(set-attr %s Tag %d)" (node t i) tag) stamped.(t)))
                      in
                      match
                        transaction k (fun () ->
                            lock k roots.(t) Message.Update;
                            ignore (eval k program : Message.v))
                      with
                      | Some () -> stamps.(t) <- tag
                      | None -> ()
                    end)
                  writer_picks)
          end
          else begin
            (* Snapshot clocks only move forward, so a tree's tag never
               goes back between browses. *)
            let seen = Array.make browse_trees 0 in
            let j = ref 0 in
            while not (Atomic.get writer_done || Atomic.get stop) do
              let t = reader_picks.(!j mod Array.length reader_picks) in
              incr j;
              browse k (fun () ->
                  let tag = check_tree k t in
                  if tag < seen.(t) then oracle "snapshot-browse: tree %d tag went back from %d to %d" t seen.(t) tag;
                  seen.(t) <- tag)
            done
          end
        in
        let verify k =
          for t = 0 to browse_trees - 1 do
            if t mod connections = k.idx then
              browse k (fun () ->
                  let tag = check_tree k t in
                  if tag <> stamps.(t) then
                    oracle "snapshot-browse: tree %d ends with tag %d, last acknowledged stamp %d" t tag stamps.(t))
          done
        in
        { drive; verify });
  }

let workloads = [ assembly_build; assembly_contend; snapshot_browse ]

(* ---------- rounds ---------- *)

type stats3 = { s0 : Obs.snapshot; s1 : Obs.snapshot; s2 : Obs.snapshot }

type round = {
  idx : int;
  traced : bool;
  setup_s : float;
  window_s : float;
  read_s : float;  (* the phase the read metrics come from *)
  win : tally;  (* the window *)
  ver : tally;  (* the verification browses *)
  proc0 : proc;
  proc1 : proc;
  hwm_kb : int;  (* after verification, just before the kill *)
  client_cpu_s : float;  (* over the window *)
  log_bytes : int;  (* the WAL file at the end of the window *)
  recovery_s : float;
  stats : stats3 option;
  spans : span list;
  probes : probes;  (* before the server starts *)
}

let counter_of snap name = Option.value (Obs.find_counter snap name) ~default:0

let wait_until ~what ~timeout f =
  let deadline = now () +. timeout in
  let rec go () =
    match f () with
    | Some v -> v
    | None ->
        if now () > deadline then failwith ("timed out waiting for " ^ what);
        Thread.delay 0.002;
        go ()
  in
  go ()

let connect_all ~pid sock =
  let addr = Addr.Unix_path sock in
  Array.init connections (fun idx ->
      let c =
        wait_until ~what:"the server to listen" ~timeout:20. (fun () ->
            (match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _ -> failwith "orion serve exited during start-up (see its log)");
            match Client.connect ~client_name:"perfbench" addr with
            | c -> Some c
            | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> None)
      in
      { idx; c; tracing = false; phase = "setup"; spans = []; cur = 0; tally = fresh_tally () })

(* Run [f] on every connection, one thread each; re-raise the first
   failure after all have stopped. *)
let in_parallel conns f =
  let fatal = ref None in
  let mu = Mutex.create () in
  let threads =
    Array.map
      (fun k ->
        Thread.create
          (fun () ->
            try f k
            with e ->
              Atomic.set stop true;
              Mutex.protect mu (fun () -> if !fatal = None then fatal := Some e))
          ())
      conns
  in
  Array.iter Thread.join threads;
  match !fatal with Some e -> raise e | None -> ()

let phase conns name f =
  Array.iter
    (fun k ->
      k.tally <- fresh_tally ();
      k.phase <- name)
    conns;
  let t0 = now () in
  in_parallel conns f;
  let elapsed = now () -. t0 in
  (elapsed, merge_tallies (Array.to_list (Array.map (fun k -> k.tally) conns)))

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = Option.is_some (find_sub s sub)

(* `orion recover` prints "logical: N committed txs, ...". *)
let committed_txs output =
  let marker = "logical: " in
  Option.bind (find_sub output marker) (fun i ->
      let from = i + String.length marker in
      Scanf.sscanf_opt (String.sub output from (String.length output - from)) "%d" Fun.id)

let run_round ~orion ~work ~seed ~(wl : workload) ~idx ~traced =
  let dir = Printf.sprintf "%s/r%d" work idx in
  mkdir_p dir;
  let db = dir ^ "/db.odb" and sock = dir ^ "/s.sock" in
  let probes = probe dir in
  let t0 = now () in
  let pid =
    spawn orion (("serve" :: db :: serve_flags) @ [ "--socket"; sock ]) ~log:(dir ^ "/serve.log")
  in
  let finish_server () = kill_child pid in
  let body () =
    let conns = connect_all ~pid sock in
    let k0 = conns.(0) in
    (* The server checkpoints (and truncates its log) once schema DDL is
       followed by a moment with no transaction open.  Setup ends with
       one more class definition and waits for that checkpoint, so the
       window starts from an empty log holding exactly the window's
       commits: every round then builds a log of the same size. *)
    let ddl_checkpoint src =
      let truncations () = counter_of (Client.stats k0.c) "wal.truncations" in
      let before = truncations () in
      ignore (eval k0 src : Message.v);
      wait_until ~what:"the schema checkpoint" ~timeout:20. (fun () ->
          if truncations () > before then Some () else None)
    in
    Array.iter (fun k -> k.tracing <- traced) conns;
    let setup_span = open_span k0 in
    ddl_checkpoint wl.ddl;
    let rng = Random.State.make [| seed; idx; Hashtbl.hash wl.name |] in
    let p = wl.prepare rng k0 in
    ddl_checkpoint "(make-class 'Loaded)";
    let setup_s = now () -. t0 in
    ignore (close_span k0 "setup" setup_span : float);
    let stats () = if traced then Some (Client.stats k0.c) else None in
    let s0 = stats () in
    let proc0 = sample_proc pid and cpu0 = client_cpu_s () in
    let window_s, win = phase conns "window" p.drive in
    let proc1 = sample_proc pid and cpu1 = client_cpu_s () in
    let log_bytes = (Unix.stat (db ^ ".wal")).Unix.st_size in
    let s1 = stats () in
    let verify_s, ver = phase conns "verify" p.verify in
    let s2 = stats () in
    let hwm_kb = (sample_proc pid).hwm_kb in
    let spans = List.concat_map (fun (k : conn) -> k.spans) (Array.to_list conns) in
    Array.iter (fun k -> Client.close k.c) conns;
    finish_server ();
    let code, out, recovery_s = run_tool orion [ "recover"; db ] ~log:(dir ^ "/recover.log") in
    if code <> 0 then oracle "%s: orion recover exited %d:\n%s" wl.name code out;
    (match committed_txs out with
    | Some n when n = win.commits -> ()
    | got ->
        oracle "%s: recovery restored %s committed transactions, %d acknowledged" wl.name
          (match got with Some n -> string_of_int n | None -> "an unreported number of")
          win.commits);
    if not (contains out "integrity: consistent") then
      oracle "%s: recovery did not report a consistent store:\n%s" wl.name out;
    let code, out, _ = run_tool orion [ "fsck"; db ] ~log:(dir ^ "/fsck.log") in
    if code <> 0 then oracle "%s: orion fsck exited %d:\n%s" wl.name code out;
    remove_tree dir;
    let stats =
      match (s0, s1, s2) with Some s0, Some s1, Some s2 -> Some { s0; s1; s2 } | _ -> None
    in
    {
      idx;
      traced;
      setup_s;
      window_s;
      read_s = (if wl.reads_in_window then window_s else verify_s);
      win;
      ver;
      proc0;
      proc1;
      hwm_kb;
      client_cpu_s = cpu1 -. cpu0;
      log_bytes;
      recovery_s;
      stats;
      spans;
      probes;
    }
  in
  Fun.protect ~finally:finish_server body

(* ---------- metrics ---------- *)

type metric = { m_name : string; unit_ : string; value : float }

let m m_name unit_ value = { m_name; unit_; value }

(* The tally the read metrics come from. *)
let reads (wl : workload) r = if wl.reads_in_window then r.win else r.ver

let txn_per_s r = float_of_int r.win.commits /. r.window_s

(* End-to-end metrics, from untraced rounds.  Rates and times are
   medians over rounds; latency percentiles are taken over the samples
   of all rounds (a round has too few for its own 99th percentile).
   Timed metrics are scaled to the reference machine: each round's
   times are divided by its slowdown and its rates multiplied by it,
   sample by sample for the percentiles.  [~scaled:false] gives them as
   measured. *)
let end_to_end ?(scaled = true) wl rounds =
  let k r = if scaled then slowdown r.probes else 1. in
  let per f = median (List.map f rounds) in
  let rate f = per (fun r -> f r *. k r) and time f = per (fun r -> f r /. k r) in
  let pooled samples p =
    percentile (List.concat_map (fun r -> List.map (fun x -> x /. k r) (samples r)) rounds) p
  in
  let txn = pooled (fun r -> r.win.txn_ms) and rd = pooled (fun r -> (reads wl r).browse_ms) in
  [
    m "txn_per_s" "1/s" (rate txn_per_s);
    m "txn_p50_ms" "ms" (txn 0.5);
    m "txn_p99_ms" "ms" (txn 0.99);
    m "read_per_s" "1/s" (rate (fun r -> float_of_int (reads wl r).browses /. r.read_s));
    m "read_p50_ms" "ms" (rd 0.5);
    m "read_p99_ms" "ms" (rd 0.99);
    m "write_bytes_per_txn" "bytes"
      (per (fun r -> iratio (r.proc1.write_bytes - r.proc0.write_bytes) r.win.commits));
    m "server_rss_mb" "MB" (per (fun r -> float_of_int r.hwm_kb /. 1024.));
    m "recovery_s" "s" (time (fun r -> r.recovery_s));
    m "setup_s" "s" (time (fun r -> r.setup_s));
  ]

let requests =
  [
    "begin";
    "lock_composite";
    "make";
    "read_attr";
    "eval";
    "commit";
    "begin_snapshot";
    "components_of";
    "ancestors_of";
    "end_snapshot";
  ]

(* Per-layer metrics, from the traced rounds.  [*_per_txn] server-side
   counts are per op: a committed transaction on the write workloads, a
   window browse on snapshot-browse. *)
let per_layer wl rounds =
  let traced = List.filter (fun r -> r.traced) rounds in
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 traced in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0. traced in
  let stats r = Option.get r.stats in
  (* Counter and histogram deltas over an interval of each traced round:
     the window, the read phase, or the whole measured round. *)
  let window r = ((stats r).s0, (stats r).s1) in
  let read_phase r = if wl.reads_in_window then window r else ((stats r).s1, (stats r).s2) in
  let whole r = ((stats r).s0, (stats r).s2) in
  let count over name = sum (fun r -> let a, b = over r in counter_of b name - counter_of a name) in
  let hist over name =
    let get s = Option.value (Obs.find_histogram s name) ~default:(Obs.merge_summaries []) in
    let n = sum (fun r -> let a, b = over r in (get b).Obs.count - (get a).Obs.count) in
    let total = sumf (fun r -> let a, b = over r in (get b).Obs.sum -. (get a).Obs.sum) in
    (n, total)
  in
  let hist_mean over name scale = let n, total = hist over name in ratio total (float_of_int n) *. scale in
  let hist_sum over name = snd (hist over name) in
  let commits = sum (fun r -> r.win.commits) in
  let browses = sum (fun r -> r.win.browses) in
  let ops = if wl.reads_in_window then browses else commits in
  let per_op v = ratio v (float_of_int ops) in
  let per_op_count over name = per_op (float_of_int (count over name)) in
  (* Spans: request round trips, and each txn's time outside them. *)
  let spans = List.concat_map (fun r -> r.spans) traced in
  let dur s = (s.t1 -. s.t0) *. 1e6 in
  (* Set-up calls are traced (and written out) but not counted here: a
     request type the workload does not issue after set-up reads 0. *)
  let rtt req =
    let xs =
      List.filter_map
        (fun s -> if s.label = "req." ^ req && s.phase <> "setup" then Some (dur s) else None)
        spans
    in
    [ m (Printf.sprintf "rtt.%s.mean_us" req) "us" (mean xs); m (Printf.sprintf "rtt.%s.p99_us" req) "us" (percentile xs 0.99) ]
  in
  let in_requests = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if String.starts_with ~prefix:"req." s.label then
        Hashtbl.replace in_requests s.id (dur s +. Option.value (Hashtbl.find_opt in_requests s.id) ~default:0.))
    spans;
  let self_us =
    List.filter_map
      (fun s ->
        if s.label = "txn" then Some (dur s -. Option.value (Hashtbl.find_opt in_requests s.id) ~default:0.)
        else None)
      spans
  in
  let tallies = List.concat_map (fun r -> [ r.win; r.ver ]) traced in
  let tsum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let proc f = sum (fun r -> f r.proc1 - f r.proc0) in
  let cpu_ticks = proc (fun p -> p.utime) + proc (fun p -> p.stime) in
  let syncs = count window "wal.syncs" in
  let edge_hits = count whole "edge_cache.hits" and edge_misses = count whole "edge_cache.misses" in
  let mvcc_reads = count read_phase "mvcc.reads" in
  let tps rs = median (List.map txn_per_s rs) in
  let attempted = tsum (fun t -> t.commits + t.browses + t.failed) in
  List.concat_map rtt requests
  @ [
      m "txn.client_self_us" "us" (mean self_us);
      m "frame.decode_us_mean" "us" (hist_mean whole "frame.decode_seconds" 1e6);
      m "frame.encode_us_mean" "us" (hist_mean whole "frame.encode_seconds" 1e6);
      m "reply.objs_per_read" "count" (iratio (tsum (fun t -> t.objs)) (tsum (fun t -> t.obj_reads)));
      m "server.dispatch_us_mean" "us" (hist_mean whole "server.dispatch_seconds" 1e6);
      m "txsvc.wait_us_per_txn" "us" (per_op (hist_sum window "txsvc.wait_seconds" *. 1e6));
      m "txsvc.hold_us_per_txn" "us" (per_op (hist_sum window "txsvc.hold_seconds" *. 1e6));
      m "txsvc.contended_ratio" "ratio" (iratio (count window "txsvc.contended") (count window "txsvc.acquires"));
      m "server.parks_per_txn" "count" (per_op_count window "server.parks_total");
      m "server.requests_per_txn" "count" (per_op_count window "server.requests");
      m "lock.acquisitions_per_txn" "count" (per_op_count window "lock.acquisitions");
      m "lock.blocks_per_txn" "count" (per_op_count window "lock.blocks");
      m "lock.wait_ms_per_txn" "ms" (per_op (hist_sum window "lock.wait_seconds" *. 1e3));
      m "lock.acquire_us_mean" "us" (hist_mean window "lock.acquire_seconds" 1e6);
      m "lock.deadlock_victims_per_txn" "count" (per_op_count window "server.deadlock_victims");
      m "lock.timeouts_per_txn" "count" (per_op_count window "server.lock_timeouts");
      m "txn.retries_per_txn" "count" (iratio (sum (fun r -> r.win.retries)) commits);
      m "txn.commit_ratio" "ratio" (iratio commits (sum (fun r -> r.win.attempts)));
      m "wal.syncs_per_txn" "count" (per_op (float_of_int syncs));
      m "wal.sync_ms_mean" "ms" (hist_mean window "wal.sync_seconds" 1e3);
      m "wal.append_us_mean" "us" (hist_mean window "wal.append_seconds" 1e6);
      m "wal.bytes_per_txn" "bytes" (per_op_count window "wal.bytes");
      m "wal.batch_size_mean" "count" (hist_mean window "wal.group_commit.batch_size" 1.);
      m "wal.log_mb_end" "MB" (median (List.map (fun r -> float_of_int r.log_bytes /. 1e6) traced));
      m "proc.write_bytes_per_sync" "bytes" (iratio (proc (fun p -> p.write_bytes)) syncs);
      m "mvcc.reads_per_browse" "count" (iratio mvcc_reads (sum (fun r -> (reads wl r).browses)));
      m "mvcc.fallthrough_ratio" "ratio" (iratio (count read_phase "mvcc.fallthroughs") mvcc_reads);
      m "mvcc.published_per_txn" "count" (iratio (count window "mvcc.published") commits);
      m "mvcc.pruned_per_txn" "count" (iratio (count window "mvcc.pruned") commits);
      m "traversal.components_us_mean" "us" (hist_mean whole "traversal.components_seconds" 1e6);
      m "edge_cache.hit_ratio" "ratio" (iratio edge_hits (edge_hits + edge_misses));
      m "proc.server_cpu_ms_per_txn" "ms" (per_op (float_of_int cpu_ticks *. tick_ms));
      m "proc.server_sys_ratio" "ratio" (iratio (proc (fun p -> p.stime)) cpu_ticks);
      m "proc.client_cpu_ms_per_op" "ms"
        (ratio (sumf (fun r -> r.client_cpu_s) *. 1e3) (float_of_int (commits + browses)));
      m "failed_ratio" "ratio" (iratio (tsum (fun t -> t.failed)) attempted);
      m "trace.txn_per_s" "1/s" (tps traced);
      m "trace.untraced_txn_per_s" "1/s" (tps untraced);
      m "trace.traced_over_untraced" "ratio" (ratio (tps traced) (tps untraced));
    ]

(* ---------- records ---------- *)

let metrics_json ms = Obj (List.map (fun x -> (x.m_name, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ])) ms)

let round_json wl r =
  Obj
    [
      ("round", Int r.idx);
      ("traced", Bool r.traced);
      ("setup_s", Num r.setup_s);
      ("window_s", Num r.window_s);
      ("read_s", Num r.read_s);
      ("commits", Int r.win.commits);
      ("attempts", Int r.win.attempts);
      ("retries", Int r.win.retries);
      ("browses", Int (reads wl r).browses);
      ("failed", Int (r.win.failed + r.ver.failed));
      ("txn_per_s", Num (txn_per_s r));
      ("txn_p50_ms", Num (percentile r.win.txn_ms 0.5));
      ("txn_p99_ms", Num (percentile r.win.txn_ms 0.99));
      ("read_per_s", Num (float_of_int (reads wl r).browses /. r.read_s));
      ("read_p50_ms", Num (percentile (reads wl r).browse_ms 0.5));
      ("read_p99_ms", Num (percentile (reads wl r).browse_ms 0.99));
      ("write_bytes", Int (r.proc1.write_bytes - r.proc0.write_bytes));
      ("server_hwm_kb", Int r.hwm_kb);
      ("log_bytes", Int r.log_bytes);
      ("recovery_s", Num r.recovery_s);
      ("probe_cpu_s", Num r.probes.cpu_s);
      ("probe_ipc_s", Num r.probes.ipc_s);
      ("probe_fsync_s", Num r.probes.fsync_s);
      ("slowdown", Num (slowdown r.probes));
    ]

let snapshot_json (s : Obs.snapshot) =
  let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs) in
  Obj
    [
      ("counters", ints s.Obs.counters);
      ("gauges", ints s.Obs.gauges);
      ( "histograms",
        Obj
          (List.map
             (fun (k, h) ->
               ( k,
                 Obj
                   [
                     ("count", Int h.Obs.count);
                     ("sum_s", Num h.Obs.sum);
                     ("max_s", Num h.Obs.max);
                     ("buckets", Arr (Array.to_list (Array.map (fun b -> Int b) h.Obs.buckets)));
                   ] ))
             s.Obs.histograms) );
    ]

let proc_json p =
  Obj [ ("write_bytes", Int p.write_bytes); ("utime_ticks", Int p.utime); ("stime_ticks", Int p.stime) ]

(* The raw material of a traced run: every Stats snapshot with its
   histogram buckets and the /proc samples, per traced round. *)
let raw_json rounds =
  Obj
    [
      ("bucket_bounds_s", Arr (Array.to_list (Array.map (fun b -> Num b) Obs.bucket_bounds)));
      ( "rounds",
        Arr
          (List.filter_map
             (fun r ->
               Option.map
                 (fun st ->
                   Obj
                     [
                       ("round", Int r.idx);
                       ("window_start", snapshot_json st.s0);
                       ("window_end", snapshot_json st.s1);
                       ("verify_end", snapshot_json st.s2);
                       ("proc_window_start", proc_json r.proc0);
                       ("proc_window_end", proc_json r.proc1);
                       ("server_hwm_kb", Int r.hwm_kb);
                     ])
                 r.stats)
             rounds) );
    ]

(* One JSON object per line: a "txn", "browse" or "setup" span has no
   parent; each "req.<type>" span names the span that issued it, whose
   id it shares.  Times are microseconds since the run started. *)
let write_spans path ~started rounds =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun r ->
          List.iter
            (fun s ->
              let parent = if String.starts_with ~prefix:"req." s.label then Int s.id else Str "" in
              let us t = Int (int_of_float (Float.round ((t -. started) *. 1e6))) in
              Out_channel.output_string oc
                (json_to_string
                   (Obj
                      [
                        ("id", Int s.id);
                        ("name", Str s.label);
                        ("parent", parent);
                        ("round", Int r.idx);
                        ("phase", Str s.phase);
                        ("conn", Int s.conn);
                        ("start_us", us s.t0);
                        ("end_us", us s.t1);
                      ]));
              Out_channel.output_char oc '\n')
            (List.rev r.spans))
        rounds)

(* ---------- entry point ---------- *)

let usage =
  "usage: loadgen.exe --workload (assembly-build|assembly-contend|snapshot-browse) --seed N \
   --seconds S --trace 0|1 --orion PATH"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> opts ((key, value) :: acc) rest
    | [] -> acc
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let opts = opts [] args in
  let known = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--orion" ] in
  List.iter
    (fun (k, _) ->
      if not (List.mem k known) then begin
        prerr_endline ("unknown option " ^ k ^ "\n" ^ usage);
        exit 2
      end)
    opts;
  let get k conv =
    match Option.bind (List.assoc_opt k opts) conv with
    | Some v -> v
    | None ->
        prerr_endline ("missing or bad " ^ k ^ "\n" ^ usage);
        exit 2
  in
  let wl = get "--workload" (fun n -> List.find_opt (fun w -> w.name = n) workloads) in
  let seed = get "--seed" int_of_string_opt in
  let seconds = get "--seconds" float_of_string_opt in
  let trace = get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
  let orion = get "--orion" Option.some in
  let out = scratch ^ "/results" in
  if not (Sys.file_exists orion) then begin
    prerr_endline ("no orion binary at " ^ orion);
    exit 2
  end;
  let work = Printf.sprintf "%s/work-%d" scratch (Unix.getpid ()) in
  mkdir_p work;
  mkdir_p out;
  let started = now () in
  let rounds = ref [] in
  let violation =
    try
      let rec loop idx =
        let traced = trace && idx mod 2 = 0 in
        rounds := run_round ~orion ~work ~seed ~wl ~idx ~traced :: !rounds;
        if idx + 1 < min_rounds || now () -. started < seconds then loop (idx + 1)
      in
      loop 0;
      None
    with
    | Oracle msg -> Some msg
    | e ->
        remove_tree work;
        Printf.eprintf "perfbench: %s: %s\n" wl.name (Printexc.to_string e);
        exit 1
  in
  remove_tree work;
  let rounds = List.rev !rounds in
  let tallies = List.concat_map (fun r -> [ r.win; r.ver ]) rounds in
  let attempted = List.fold_left (fun acc t -> acc + t.commits + t.browses + t.failed) 0 tallies in
  let failed = List.fold_left (fun acc t -> acc + t.failed) 0 tallies in
  let errors = List.concat_map (fun t -> t.errors) tallies in
  let correct = violation = None in
  let metrics =
    if rounds = [] then []
    else if trace then per_layer wl rounds
    else end_to_end wl rounds
  in
  let unscaled = if trace || rounds = [] then [] else end_to_end ~scaled:false wl rounds in
  let median_slowdown = median (List.map (fun r -> slowdown r.probes) rounds) in
  let tag = Printf.sprintf "%s-seed%d" wl.name seed in
  let record =
    Obj
      [
        ( "meta",
          Obj
            [
              ("date", Str (Bench_meta.utc_date ()));
              ("git_rev", Str (Bench_meta.git_rev ()));
              ("ocaml", Str Sys.ocaml_version);
            ] );
        ( "provenance",
          Obj
            [
              ("workload", Str wl.name);
              ("seed", Int seed);
              ("trace", Bool trace);
              ("seconds", Num seconds);
              ("nproc", Int (Domain.recommended_domain_count ()));
              ("connections", Int connections);
              ("server_flags", Arr (List.map (fun f -> Str f) serve_flags));
            ] );
        ("correct", Bool correct);
        ("oracle_violation", match violation with Some v -> Str v | None -> Str "");
        ("attempted", Int attempted);
        ("failed", Int failed);
        ("failed_ratio", Num (iratio failed (max 1 attempted)));
        ("errors", Arr (List.map (fun e -> Str e) errors));
        ("metrics", metrics_json metrics);
        ("unscaled_metrics", metrics_json unscaled);
        ("median_slowdown", Num median_slowdown);
        ("rounds", Arr (List.map (round_json wl) rounds));
      ]
  in
  write_file (Printf.sprintf "%s/%s-trace%d.json" out tag (Bool.to_int trace)) (json_to_string record);
  if trace then begin
    write_file (Printf.sprintf "%s/%s.raw.json" out tag) (json_to_string (raw_json rounds));
    write_spans (Printf.sprintf "%s/%s.spans.jsonl" out tag) ~started (List.filter (fun r -> r.traced) rounds)
  end;
  Printf.eprintf "%s seed %d, %d rounds (%s), nproc %d, %d connections\n" wl.name seed (List.length rounds)
    (if trace then "alternately traced" else "untraced")
    (Domain.recommended_domain_count ())
    connections;
  List.iter
    (fun x ->
      match List.find_opt (fun u -> u.m_name = x.m_name) unscaled with
      | Some u when u.value <> x.value ->
          Printf.eprintf "  %-34s %16.4f %-6s (as measured %.4f)\n" x.m_name x.value x.unit_ u.value
      | _ -> Printf.eprintf "  %-34s %16.4f %s\n" x.m_name x.value x.unit_)
    metrics;
  if not trace then Printf.eprintf "  median slowdown against the reference machine: %.3f\n" median_slowdown;
  Printf.eprintf "  oracles: %s\n  failed: %d of %d attempted\n"
    (match violation with None -> "all passed" | Some v -> "FAILED: " ^ v)
    failed attempted;
  List.iter (fun e -> Printf.eprintf "  error: %s\n" e) errors;
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int (max 1 attempted));
            ("failed", Int failed);
            ("metrics", metrics_json metrics);
          ]));
  if not correct then exit 1
