let rec mkdirs path =
  if path <> "" && path <> "." && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end
