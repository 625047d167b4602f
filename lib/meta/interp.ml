(** The embedded interpreter for the macro language.

    "Because the macro language is C extended with AST datatypes and a
    few new primitive functions, macro expansion is simply a matter of
    running a C program on the parsed arguments of a macro invocation.
    The present implementation uses an embedded interpreter for a subset
    of the C language to execute meta-code." (paper, §3)

    Statement execution returns an {!outcome} so [return]/[break]/
    [continue] unwind properly. *)

open Ms2_syntax.Ast
open Value
module Mtype = Ms2_mtype.Mtype
module Of_cdecl = Ms2_typing.Of_cdecl
module Failpoint = Ms2_support.Failpoint

type outcome = Normal | Returned of Value.t | Broke | Continued

let error = Value.error

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec eval (env : env) (expr : expr) : Value.t =
  let loc = expr.eloc in
  charge_fuel env ~loc;
  match expr.e with
  | E_ident id -> (
      match lookup env id.id_name with
      | Some Vvoid ->
          error ~loc:id.id_loc "meta variable %s is uninitialized" id.id_name
      | Some v -> v
      | None ->
          if Builtins.is_primitive id.id_name then Vbuiltin id.id_name
          else error ~loc:id.id_loc "unbound meta variable %s" id.id_name)
  | E_const (Cint (v, _)) -> Vint v
  | E_const (Cfloat _) ->
      error ~loc "floating-point literals are not part of the macro language"
  | E_const (Cchar c) -> Vint (Char.code c)
  | E_const (Cstring s) -> Vstring s
  | E_call ({ e = E_ident f; _ }, args)
    when Builtins.is_primitive f.id_name && lookup env f.id_name = None ->
      let vargs = List.map (eval env) args in
      Builtins.call ~apply:(apply env) env loc f.id_name vargs
  | E_call (f, args) ->
      let vf = eval env f in
      let vargs = List.map (eval env) args in
      apply env ~loc vf vargs
  | E_index (l, i) -> (
      let vl = eval env l and vi = eval env i in
      match (vl, vi) with
      | Vlist items, Vint n -> (
          match List.nth_opt items n with
          | Some v -> v
          | None ->
              error ~loc "list index %d out of bounds (length %d)" n
                (List.length items))
      | Vtuple fields, Vint n -> (
          match List.nth_opt fields n with
          | Some (_, v) -> v
          | None ->
              error ~loc "tuple index %d out of bounds (size %d)" n
                (List.length fields))
      | v, _ -> error ~loc "cannot index a %s" (type_name v))
  | E_member (e, f) | E_arrow (e, f) -> (
      let f =
        match f with
        | Ii_id id -> id
        | Ii_splice sp ->
            error ~loc:sp.sp_loc
              "placeholders cannot name components of meta values"
      in
      match eval env e with
      | Vtuple fields -> (
          match Value.tuple_field fields f.id_name with
          | Some v -> v
          | None -> error ~loc:f.id_loc "tuple has no field %s" f.id_name)
      | Vnode n -> Builtins.component ~loc n f.id_name
      | v -> error ~loc "cannot select a component from a %s" (type_name v))
  | E_unary (Deref, e) -> (
      (* *l : head of list *)
      match eval env e with
      | Vlist (x :: _) -> x
      | Vlist [] -> error ~loc "head of an empty list"
      | v -> error ~loc "cannot dereference a %s" (type_name v))
  | E_unary (Addr, _) ->
      error ~loc "it is illegal to take the address of a meta value"
  | E_unary (Neg, e) -> Vint (-as_int ~loc ~what:"-" (eval env e))
  | E_unary (Plus, e) -> Vint (as_int ~loc ~what:"+" (eval env e))
  | E_unary (Bitnot, e) -> Vint (lnot (as_int ~loc ~what:"~" (eval env e)))
  | E_unary (Lognot, e) -> Vint (if truthy ~loc (eval env e) then 0 else 1)
  | E_unary (Preincr, e) -> incr_decr env ~loc e 1 ~pre:true
  | E_unary (Predecr, e) -> incr_decr env ~loc e (-1) ~pre:true
  | E_postincr e -> incr_decr env ~loc e 1 ~pre:false
  | E_postdecr e -> incr_decr env ~loc e (-1) ~pre:false
  | E_binary (Add, l, r) -> (
      (* l + n : drop the first n elements (the paper's cdr when n=1) *)
      match eval env l with
      | Vlist items ->
          let n = as_int ~loc ~what:"list offset" (eval env r) in
          let rec drop n l =
            if n <= 0 then l
            else
              match l with
              | [] -> error ~loc "list offset %d past end of list" n
              | _ :: tl -> drop (n - 1) tl
          in
          Vlist (drop n items)
      | Vint a -> Vint (a + as_int ~loc ~what:"+" (eval env r))
      | Vstring a -> Vstring (a ^ as_string ~loc ~what:"+" (eval env r))
      | v -> error ~loc "cannot apply + to a %s" (type_name v))
  | E_binary ((Logand | Logor) as op, l, r) ->
      let vl = truthy ~loc (eval env l) in
      let shortcut = match op with Logand -> not vl | _ -> vl in
      if shortcut then Vint (if vl then 1 else 0)
      else Vint (if truthy ~loc (eval env r) then 1 else 0)
  | E_binary ((Eq | Ne) as op, l, r) ->
      let eq =
        match (eval env l, eval env r) with
        | Vint a, Vint b -> a = b
        | Vstring a, Vstring b -> a = b
        | Vnode (N_id a), Vnode (N_id b) -> a.id_name = b.id_name
        | Vlist [], Vlist [] -> true
        | Vlist (_ :: _), Vlist [] | Vlist [], Vlist (_ :: _) -> false
        | a, b ->
            error ~loc "cannot compare a %s with a %s" (type_name a)
              (type_name b)
      in
      Vint (if (op = Eq) = eq then 1 else 0)
  | E_binary (op, l, r) ->
      let a = as_int ~loc ~what:"arithmetic" (eval env l)
      and b = as_int ~loc ~what:"arithmetic" (eval env r) in
      let bool_ c = Vint (if c then 1 else 0) in
      (match op with
      | Sub -> Vint (a - b)
      | Mul -> Vint (a * b)
      | Div ->
          if b = 0 then error ~loc "division by zero in meta code";
          Vint (a / b)
      | Mod ->
          if b = 0 then error ~loc "division by zero in meta code";
          Vint (a mod b)
      | Shl -> Vint (a lsl b)
      | Shr -> Vint (a asr b)
      | Lt -> bool_ (a < b)
      | Gt -> bool_ (a > b)
      | Le -> bool_ (a <= b)
      | Ge -> bool_ (a >= b)
      | Band -> Vint (a land b)
      | Bxor -> Vint (a lxor b)
      | Bor -> Vint (a lor b)
      | Add | Eq | Ne | Logand | Logor -> assert false)
  | E_cond (c, t, e) ->
      if truthy ~loc (eval env c) then eval env t else eval env e
  | E_assign (A_eq, lhs, rhs) ->
      let v = eval env rhs in
      assign env ~loc lhs v;
      v
  | E_assign (op, lhs, rhs) ->
      let cur = as_int ~loc ~what:"compound assignment" (eval env lhs) in
      let b = as_int ~loc ~what:"compound assignment" (eval env rhs) in
      let v =
        match op with
        | A_add -> cur + b
        | A_sub -> cur - b
        | A_mul -> cur * b
        | A_div ->
            if b = 0 then error ~loc "division by zero in meta code";
            cur / b
        | A_mod ->
            if b = 0 then error ~loc "division by zero in meta code";
            cur mod b
        | A_shl -> cur lsl b
        | A_shr -> cur asr b
        | A_band -> cur land b
        | A_bxor -> cur lxor b
        | A_bor -> cur lor b
        | A_eq -> assert false
      in
      assign env ~loc lhs (Vint v);
      Vint v
  | E_comma (a, b) ->
      ignore (eval env a);
      eval env b
  | E_sizeof_expr _ | E_sizeof_type _ ->
      error ~loc "sizeof is not part of the macro language"
  | E_cast _ -> error ~loc "casts are not part of the macro language"
  | E_backquote t -> Fill.fill_template ~eval env t
  | E_lambda (params, body) ->
      let bindings = Of_cdecl.params_of_func ~loc params in
      Vclosure
        { cl_params = bindings; cl_body = Body_expr body;
          cl_scopes = env.scopes }
  | E_splice _ -> error ~loc "placeholder outside a template"
  | E_macro inv -> !(env.expand_invocation) inv

and incr_decr env ~loc e delta ~pre =
  let cur = as_int ~loc ~what:"++/--" (eval env e) in
  assign env ~loc e (Vint (cur + delta));
  Vint (if pre then cur + delta else cur)

and assign env ~loc (lhs : expr) (v : Value.t) : unit =
  match lhs.e with
  | E_ident id ->
      if not (Value.assign env ~loc:id.id_loc id.id_name v) then
        error ~loc:id.id_loc "unbound meta variable %s" id.id_name
  | _ ->
      error ~loc
        "only meta variables are assignable (list and tuple components are \
         immutable)"

and apply env ~loc (f : Value.t) (args : Value.t list) : Value.t =
  Failpoint.hit ~watchdog:env.budget.watchdog ~loc "interp/call";
  match f with
  | Vclosure cl -> (
      if List.length args <> List.length cl.cl_params then
        error ~loc "wrong number of arguments: expected %d, got %d"
          (List.length cl.cl_params) (List.length args);
      (* a fresh frame over the locals the closure captured (none for a
         meta function) and the calling session's globals *)
      let call_env = derived ~scopes:cl.cl_scopes env in
      List.iter2 (fun (name, _) v -> bind call_env name v) cl.cl_params args;
      match cl.cl_body with
      | Body_expr body -> eval call_env body
      | Body_stmt body -> run_body call_env body)
  | Vbuiltin name -> Builtins.call ~apply:(apply env) env loc name args
  | v -> error ~loc "this is not a function (it is a %s)" (type_name v)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Execute a meta declaration: bind the declared variables, evaluating
    initializers; nested meta functions become closures. *)
and exec_decl (env : env) (decl : decl) : unit =
  match decl.d with
  | Decl_plain (specs, idecls) ->
      List.iter
        (function
          | Init_decl (d, init) ->
              let name, ty = Of_cdecl.of_decl ~loc:decl.dloc specs d in
              let v =
                match init with
                | Some (I_expr e) -> eval env e
                | Some (I_list _) ->
                    error ~loc:decl.dloc
                      "brace initializers are not part of the macro language"
                | None -> default_of_type ty
              in
              bind env name v
          | Init_splice _ ->
              error ~loc:decl.dloc "unfilled placeholder in meta declaration")
        idecls
  | Decl_fun (specs, d, _, body) ->
      let name, _ty = Of_cdecl.of_decl ~loc:decl.dloc specs d in
      let params =
        match Of_cdecl.func_params d with
        | Some ps -> Of_cdecl.params_of_func ~loc:decl.dloc ps
        | None -> error ~loc:decl.dloc "malformed meta function declarator"
      in
      bind env name
        (Vclosure { cl_params = params; cl_body = Body_stmt body;
                    cl_scopes = [] })
  | Decl_metadcl inner -> exec_decl env inner
  | Decl_macro_def _ | Decl_splice _ | Decl_macro _ ->
      error ~loc:decl.dloc "cannot execute this declaration as meta code"

and exec_stmt (env : env) (stmt : stmt) : outcome =
  let loc = stmt.sloc in
  charge_fuel env ~loc;
  Failpoint.hit ~watchdog:env.budget.watchdog ~loc "interp/step";
  match stmt.s with
  | St_expr e ->
      ignore (eval env e);
      Normal
  | St_compound items ->
      with_scope env (fun () ->
          let rec go = function
            | [] -> Normal
            | item :: rest -> (
                match item with
                | Bi_decl d ->
                    exec_decl env d;
                    go rest
                | Bi_stmt s -> (
                    match exec_stmt env s with
                    | Normal -> go rest
                    | out -> out))
          in
          go items)
  | St_if (c, t, e) ->
      if truthy ~loc (eval env c) then exec_stmt env t
      else (match e with Some e -> exec_stmt env e | None -> Normal)
  | St_while (c, body) ->
      let rec loop () =
        if truthy ~loc (eval env c) then
          match exec_stmt env body with
          | Normal | Continued -> loop ()
          | Broke -> Normal
          | Returned _ as r -> r
        else Normal
      in
      loop ()
  | St_do (body, c) ->
      let rec loop () =
        match exec_stmt env body with
        | Normal | Continued ->
            if truthy ~loc (eval env c) then loop () else Normal
        | Broke -> Normal
        | Returned _ as r -> r
      in
      loop ()
  | St_for (init, cond, step, body) ->
      Option.iter (fun e -> ignore (eval env e)) init;
      let rec loop () =
        let go =
          match cond with Some c -> truthy ~loc (eval env c) | None -> true
        in
        if not go then Normal
        else
          match exec_stmt env body with
          | Normal | Continued ->
              Option.iter (fun e -> ignore (eval env e)) step;
              loop ()
          | Broke -> Normal
          | Returned _ as r -> r
      in
      loop ()
  | St_switch (e, body) -> exec_switch env ~loc (eval env e) body
  | St_case (_, s) | St_default s | St_label (_, s) -> exec_stmt env s
  | St_return None -> Returned Vvoid
  | St_return (Some e) -> Returned (eval env e)
  | St_break -> Broke
  | St_continue -> Continued
  | St_goto _ -> error ~loc "goto is not part of the macro language"
  | St_null -> Normal
  | St_splice _ -> error ~loc "placeholder outside a template"
  | St_macro inv -> (
      match !(env.expand_invocation) inv with
      | Vnode (N_stmt s) -> exec_stmt env s
      | v ->
          error ~loc
            "macro %s used as a meta statement expanded to a %s, not a \
             statement"
            inv.inv_name.id_name (type_name v))

and exec_switch env ~loc (scrutinee : Value.t) (body : stmt) : outcome =
  let v = as_int ~loc ~what:"switch" scrutinee in
  match body.s with
  | St_compound items ->
      (* find the matching case (or default), then run to completion or
         break, falling through like C *)
      let stmts =
        List.filter_map
          (function Bi_stmt s -> Some s | Bi_decl _ -> None)
          items
      in
      let matches s =
        match s.s with
        | St_case (e, _) -> as_int ~loc ~what:"case" (eval env e) = v
        | _ -> false
      in
      let is_default s = match s.s with St_default _ -> true | _ -> false in
      let rec find pred = function
        | [] -> None
        | s :: rest when pred s -> Some (s :: rest)
        | _ :: rest -> find pred rest
      in
      let tail =
        match find matches stmts with
        | Some tail -> Some tail
        | None -> find is_default stmts
      in
      (match tail with
      | None -> Normal
      | Some stmts ->
          let rec run = function
            | [] -> Normal
            | s :: rest -> (
                match exec_stmt env s with
                | Normal | Continued -> run rest
                | Broke -> Normal
                | Returned _ as r -> r)
          in
          run stmts)
  | _ -> (
      (* switch over a single statement *)
      match exec_stmt env body with Broke -> Normal | out -> out)

(** Run a macro or meta-function body (a compound statement) and return
    the value of its [return] statement ([Vvoid] if it falls off the
    end). *)
and run_body (env : env) (body : stmt) : Value.t =
  Ms2_support.Obs.with_span ~cat:"meta" "eval-body" (fun () ->
      match exec_stmt env body with
      | Returned v -> v
      | Normal -> Vvoid
      | Broke | Continued ->
          error ~loc:body.sloc "break/continue outside a loop in meta code")
