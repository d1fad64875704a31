(* Tests for the instrumented depth-first interpreter. *)

let run src = Rt.Interp.run (Mhj.Front.compile src)

let output src = String.trim (run src).output

let test_arith () =
  Alcotest.(check string) "int ops" "17" (output "def main() { print(3 + 2 * 7); }");
  Alcotest.(check string) "division truncates" "2" (output "def main() { print(7 / 3); }");
  Alcotest.(check string) "mod" "1" (output "def main() { print(7 % 3); }");
  Alcotest.(check string) "neg" "-4" (output "def main() { print(-4); }");
  Alcotest.(check string)
    "float" "3.5"
    (output "def main() { print(1.5 + 2.0); }");
  Alcotest.(check string)
    "comparison chain" "true"
    (output "def main() { print(1 < 2 && 2 <= 2 && !(3 > 4) || false); }")

let test_short_circuit () =
  (* && must not evaluate its right operand when the left is false: the
     right operand here would divide by zero. *)
  Alcotest.(check string) "and" "false"
    (output "def main() { print(false && 1 / 0 == 0); }");
  Alcotest.(check string) "or" "true"
    (output "def main() { print(true || 1 / 0 == 0); }")

let test_control_flow () =
  Alcotest.(check string) "if/else" "b"
    (output
       {|def main() { if (1 > 2) { print("a"); } else { print("b"); } }|});
  Alcotest.(check string) "while" "10"
    (output
       "def main() { var s: int = 0; var i: int = 0; while (i < 5) { s = s + \
        i; i = i + 1; } print(s); }");
  Alcotest.(check string) "for with step" "9"
    (output
       "def main() { var s: int = 0; for (i = 1 to 5 by 2) { s = s + i; } \
        print(s); }");
  Alcotest.(check string) "for downward" "6"
    (output
       "def main() { var s: int = 0; for (i = 3 to 1 by -1) { s = s + i; } \
        print(s); }")

let test_functions () =
  Alcotest.(check string) "recursion" "120"
    (output
       {|
def fact(n: int): int {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
def main() { print(fact(5)); }
|});
  Alcotest.(check string) "call in expression" "12"
    (output
       {|
def twice(n: int): int { return 2 * n; }
def main() { print(twice(2) + twice(4)); }
|})

let test_arrays () =
  Alcotest.(check string) "1d" "7"
    (output
       "def main() { val a: int[] = new int[3]; a[1] = 7; print(a[1]); }");
  Alcotest.(check string) "zero-init" "0"
    (output "def main() { val a: int[] = new int[3]; print(a[2]); }");
  Alcotest.(check string) "2d" "9"
    (output
       "def main() { val g: int[][] = new int[2][3]; g[1][2] = 9; \
        print(g[1][2]); }");
  Alcotest.(check string) "alen" "5"
    (output "def main() { val a: int[] = new int[5]; print(alen(a)); }");
  Alcotest.(check string) "aliasing" "3"
    (output
       "def main() { val a: int[] = new int[1]; val b: int[] = a; b[0] = 3; \
        print(a[0]); }")

let test_globals () =
  Alcotest.(check string) "global init order" "11"
    (output "var g: int = 10;\ndef main() { g = g + 1; print(g); }")

let test_builtins () =
  Alcotest.(check string) "float conv" "2.5"
    (output "def main() { print(float(5) / 2.0); }");
  Alcotest.(check string) "int conv" "2"
    (output "def main() { print(int(2.9)); }");
  Alcotest.(check string) "sqrt" "3"
    (output "def main() { print(int(sqrt(9.0))); }");
  Alcotest.(check string) "cas success" "true"
    (output
       "def main() { val a: int[] = new int[1]; print(cas(a, 0, 0, 5)); }");
  Alcotest.(check string) "cas failure leaves value" "0"
    (output
       "def main() { val a: int[] = new int[1]; val ok: bool = cas(a, 0, 3, \
        5); print(a[0]); }")

let test_async_depth_first () =
  (* The sequential depth-first execution runs async bodies at their spawn
     point, so output order matches the serial elision. *)
  Alcotest.(check string) "df order" "1\n2\n3"
    (output
       "def main() { print(1); async { print(2); } print(3); }")

let test_numeric_builtins () =
  let approx name expected src =
    let got = float_of_string (output src) in
    if abs_float (got -. expected) > 1e-5 then
      Alcotest.failf "%s: expected %f, got %f" name expected got
  in
  approx "sin" 0.0 "def main() { print(sin(0.0)); }";
  approx "cos" 1.0 "def main() { print(cos(0.0)); }";
  approx "pow" 8.0 "def main() { print(pow(2.0, 3.0)); }";
  approx "exp(log x)" 5.0 "def main() { print(exp(log(5.0))); }";
  approx "fabs" 2.5 "def main() { print(fabs(0.0 - 2.5)); }";
  approx "sqrt" 1.41421 "def main() { print(sqrt(2.0)); }"

let test_call_in_expression_context () =
  (* a call mid-expression splits the enclosing step around a scope node *)
  let res =
    run
      {|
def g(): int { return 21; }
def main() { val x: int = g() + g(); print(x); }
|}
  in
  Alcotest.(check string) "value" "42" (String.trim res.output);
  let _, _, scopes, _ = Sdpst.Node.count_by_kind res.tree in
  Alcotest.(check int) "two call scopes" 2 scopes

let test_arrays_by_reference () =
  Alcotest.(check string) "callee mutates caller's array" "9"
    (output
       {|
def set(a: int[], i: int, v: int) { a[i] = v; }
def main() { val a: int[] = new int[3]; set(a, 1, 9); print(a[1]); }
|})

let test_return_from_nested_blocks () =
  Alcotest.(check string) "return exits through blocks and loops" "3"
    (output
       {|
def find(a: int[], v: int): int {
  for (i = 0 to alen(a) - 1) {
    if (a[i] == v) {
      return i;
    }
  }
  return 0 - 1;
}
def main() {
  val a: int[] = new int[5];
  a[3] = 7;
  print(find(a, 7));
}
|})

let test_cas_bounds () =
  match
    run "def main() { val a: int[] = new int[1]; print(cas(a, 5, 0, 1)); }"
  with
  | exception Rt.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "cas out of bounds must fail"

let test_runtime_errors () =
  let fails src =
    match run src with
    | exception Rt.Interp.Runtime_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "div by zero" true (fails "def main() { print(1 / 0); }");
  Alcotest.(check bool) "mod by zero" true (fails "def main() { print(1 % 0); }");
  Alcotest.(check bool) "index oob" true
    (fails "def main() { val a: int[] = new int[2]; print(a[2]); }");
  Alcotest.(check bool) "negative index" true
    (fails "def main() { val a: int[] = new int[2]; print(a[0 - 1]); }");
  Alcotest.(check bool) "negative dimension" true
    (fails "def main() { val a: int[] = new int[0 - 3]; print(0); }");
  Alcotest.(check bool) "zero for step" true
    (fails "def main() { for (i = 0 to 1 by 0) { print(i); } }")

let test_fuel () =
  match
    Rt.Interp.run ~fuel:1000
      (Mhj.Front.compile "def main() { while (true) { work(10); } }")
  with
  | exception Rt.Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected Out_of_fuel"

let test_work_builtin () =
  let r1 = run "def main() { work(100); }" in
  let r2 = run "def main() { work(200); }" in
  Alcotest.(check int) "work difference" 100 (r2.work - r1.work)

let test_determinism () =
  let src = Benchsuite.Progen.generate ~seed:99 () in
  let a = run src and b = run src in
  Alcotest.(check string) "same output" a.output b.output;
  Alcotest.(check int) "same work" a.work b.work;
  Alcotest.(check int) "same tree size" a.tree.Sdpst.Node.n_nodes
    b.tree.Sdpst.Node.n_nodes

let test_elision_equivalence () =
  (* async/finish do not change sequential semantics. *)
  List.iter
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = Mhj.Front.compile src in
      let par = Rt.Interp.run prog in
      let ser = Rt.Interp.run_elision prog in
      Alcotest.(check string)
        (Fmt.str "seed %d output" seed)
        ser.output par.output)
    [ 1; 2; 3; 4; 5 ]

let test_unnormalized_rejected () =
  let p = Mhj.Parser.parse_program "def main() { if (true) print(1); }" in
  match Rt.Interp.run p with
  | exception Rt.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unnormalized program must be rejected"

let test_missing_main_rejected () =
  let p = Mhj.Front.compile ~require_main:false "def helper() { print(1); }" in
  match Rt.Interp.run p with
  | exception Rt.Interp.Runtime_error (m, _) ->
      Alcotest.(check bool) "mentions main" true
        (let affix = "main" in
         let n = String.length affix and len = String.length m in
         let rec go i = i + n <= len && (String.sub m i n = affix || go (i + 1)) in
         go 0)
  | _ -> Alcotest.fail "program without main must be rejected"

(* A local that shadows a global is never monitored; the global, read
   after the shadowing block, is. *)
let test_shadowing_monitored () =
  let seen = ref [] in
  let monitor =
    {
      Rt.Monitor.nop with
      on_access =
        (fun ~step:_ ~bid:_ ~idx:_ id kind -> seen := (id, kind) :: !seen);
    }
  in
  let r =
    Rt.Interp.run ~monitor
      (Mhj.Front.compile
         "var g: int = 1;\n\
          def main() {\n\
         \  { var g: int = 5; g = g + 1; print(g); }\n\
          \  print(g);\n\
          }")
  in
  Alcotest.(check string) "output" "6\n1\n" r.output;
  let g = Option.get (Rt.Addr.Intern.find_global r.intern "g") in
  Alcotest.(check (list (pair int string)))
    "one monitored read, of the global" [ (g, "read") ]
    (List.map
       (fun (id, k) -> (id, Fmt.str "%a" Rt.Monitor.pp_access k))
       !seen)

let () =
  Alcotest.run "interp"
    [
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "builtins" `Quick test_builtins;
          Alcotest.test_case "numeric builtins" `Quick test_numeric_builtins;
          Alcotest.test_case "call in expression" `Quick
            test_call_in_expression_context;
          Alcotest.test_case "arrays by reference" `Quick
            test_arrays_by_reference;
          Alcotest.test_case "return from nesting" `Quick
            test_return_from_nested_blocks;
          Alcotest.test_case "cas bounds" `Quick test_cas_bounds;
          Alcotest.test_case "shadowing and monitoring" `Quick
            test_shadowing_monitored;
        ] );
      ( "execution",
        [
          Alcotest.test_case "depth-first order" `Quick test_async_depth_first;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "work builtin" `Quick test_work_builtin;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "elision equivalence" `Quick
            test_elision_equivalence;
          Alcotest.test_case "normalization required" `Quick
            test_unnormalized_rejected;
          Alcotest.test_case "missing main rejected" `Quick
            test_missing_main_rejected;
        ] );
    ]
