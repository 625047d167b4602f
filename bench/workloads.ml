(** Benchmark workloads: MS² sources exercising each paper example, with
    size parameters for the scaling sweeps. *)

let painting_defs =
  "syntax stmt Painting {| $$stmt::body |} {\n\
   return `{BeginPaint(hDC, &ps);\n\
   $body;\n\
   EndPaint(hDC, &ps);};\n\
   }\n"

(** [painting_uses n] is the uses-only half of {!painting}: a function
    with [n] sibling Painting invocations, no definitions — the
    repeated-fragment shape of a multi-file session. *)
let painting_uses n =
  let b = Buffer.create 1024 in
  Buffer.add_string b "int draw(int hDC)\n{\n";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "  Painting { line(%d, %d); fill(%d); }\n" i (i + 1) i)
  done;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

(** [painting n] is a program with [n] sibling Painting invocations. *)
let painting n = painting_defs ^ painting_uses n

(** [painting_nested d] is one Painting invocation nested [d] deep. *)
let painting_nested d =
  let b = Buffer.create 1024 in
  Buffer.add_string b painting_defs;
  Buffer.add_string b "int draw(int hDC)\n{\n";
  for _ = 1 to d do
    Buffer.add_string b "Painting { "
  done;
  Buffer.add_string b "pixel();";
  for _ = 1 to d do
    Buffer.add_string b " }"
  done;
  Buffer.add_string b "\n  return 0;\n}\n";
  Buffer.contents b

let myenum_defs =
  "syntax decl myenum [] {| $$id::name { $$+/, id::ids } ; |} {\n\
   return list(\n\
   `[enum $name {$ids};],\n\
   `[void $(symbolconc(\"print_\", name))(int arg)\n\
   { switch (arg)\n\
   {$(map((@id id; `{case $id: {printf(\"%s\", $(pstring(id))); \
   break;}}), ids))} }],\n\
   `[int $(symbolconc(\"read_\", name))()\n\
   { char s[100];\n\
   getline(s, 100);\n\
   $(map((@id id; `{if (strcmp(s, $(pstring(id))) == 0) return $id;}), \
   ids))\n\
   return -1; }]);\n\
   }\n"

(** [myenum n] declares one enumeration with [n] constants (readers and
    writers generated for each). *)
let myenum n =
  let ids = List.init n (fun i -> Printf.sprintf "item_%d" i) in
  myenum_defs ^ "myenum workload {" ^ String.concat ", " ids ^ "};\n"

let exceptions_defs =
  "syntax stmt throw {| $$exp::value |} {\n\
   if (simple_expression(value))\n\
   return `{if (exception_ptr == 0) no_handler($value);\n\
   else longjmp(exception_ptr, $value);};\n\
   else\n\
   return `{{int the_value = $value;\n\
   if (exception_ptr == 0) no_handler(the_value);\n\
   else longjmp(exception_ptr, the_value);}};\n\
   }\n\
   syntax stmt catch {| $$exp::tag $$stmt::handler $$stmt::body |} {\n\
   return `{{int *old_exception_ptr = exception_ptr;\n\
   int jmp_buffer[2];\n\
   int result;\n\
   result = setjump(jmp_buffer);\n\
   if (result == 0)\n\
   {exception_ptr = jmp_buffer; $body}\n\
   else\n\
   {exception_ptr = old_exception_ptr;\n\
   if (result == $tag) $handler;\n\
   else throw result;}}};\n\
   }\n\
   syntax stmt unwind_protect {| $$stmt::body $$stmt::cleanup |} {\n\
   return `{{int *old_exception_ptr = exception_ptr;\n\
   int jmp_buffer[2];\n\
   int result;\n\
   result = setjump(jmp_buffer);\n\
   if (result == 0)\n\
   {exception_ptr = jmp_buffer; $body}\n\
   exception_ptr = old_exception_ptr;\n\
   $cleanup;\n\
   if (result != 0) throw result;}};\n\
   }\n"

(** [exceptions n] wraps [n] catch+unwind_protect uses. *)
let exceptions n =
  let b = Buffer.create 2048 in
  Buffer.add_string b exceptions_defs;
  Buffer.add_string b "int work(int a, int b)\n{\n  int z;\n  z = a + b;\n";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf
         "  catch tag_%d { handle(%d); } { risky(%d); }\n\
         \  unwind_protect { acquire(%d); } { release(%d); }\n"
         i i i i i)
  done;
  Buffer.add_string b "  throw z + 1;\n  return z;\n}\n";
  Buffer.contents b

(** The Figure-1 comparison workload: the MUL macro applied [n] times. *)
let mul_ms2 n =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "syntax exp MUL {| ( $$exp::a , $$exp::b ) |} { return `($a * $b); }\n";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "int w%d = MUL(x + %d, y + %d);\n" i i (i + 1))
  done;
  Buffer.contents b

let mul_cpp_input n =
  let b = Buffer.create 1024 in
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "int w%d = MUL(x + %d, y + %d);\n" i i (i + 1))
  done;
  Buffer.contents b

(** [many_macros n] defines [n] distinct statement macros (each with a
    small pattern and template) and invokes the last one once —
    measuring definition-time cost (parsing, pattern checking and
    compilation, body type checking). *)
let many_macros n =
  let b = Buffer.create 4096 in
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf
         "syntax stmt m%d {| ( $$exp::e ) ; |} { return `{f%d($e);}; }\n" i
         i)
  done;
  Buffer.add_string b
    (Printf.sprintf "int g() { m%d(1); return 0; }\n" n);
  Buffer.contents b

(** Pure-C control for the penalty comparison: the [expansion] of a
    source, as a string. *)
let expanded_form src =
  match Ms2.Api.expand_string src with
  | Ok out -> out
  | Error e -> failwith ("workload does not expand: " ^ e)
