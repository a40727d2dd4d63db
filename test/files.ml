(* Scratch directories and file reads shared by the session, parallel
   and server suites. *)

let tmpdir () =
  let f = Filename.temp_file "ormp_test" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The three profiles a finished session or daemon session leaves. *)
let profile_bytes dir =
  ( read_file (Filename.concat dir "whomp.profile"),
    read_file (Filename.concat dir "rasg.profile"),
    read_file (Filename.concat dir "leap.profile") )
