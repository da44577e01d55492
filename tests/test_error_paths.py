"""Error-path coverage: frontend diagnostics, builtin misuse, and
conversion edges the happy-path tests never hit."""

import pytest

from repro.errors import OutcomeKind
from repro.impls import CERBERUS
from tests.conftest import run_abstract


def frontend_error(src, needle=""):
    out = run_abstract(src)
    assert out.kind is OutcomeKind.ERROR, out.describe()
    if needle:
        assert needle in out.detail, out.detail
    return out


class TestFrontendDiagnostics:
    def test_float_type_rejected(self):
        frontend_error("int main(void){ double d = 0; return 0; }",
                       "floating-point")

    def test_float_literal_rejected(self):
        frontend_error("int main(void){ return 1.5; }")

    def test_compound_literal_rejected(self):
        frontend_error(
            "struct p { int a; };"
            "int main(void){ return ((struct p){1}).a; }")

    def test_assign_to_rvalue(self):
        frontend_error("int main(void){ 4 = 5; return 0; }", "lvalue")

    def test_cast_not_lvalue(self):
        frontend_error("int main(void){ int x; (long)x = 5; return 0; }")

    def test_deref_non_pointer(self):
        frontend_error("int main(void){ int x = 1; return *x; }")

    def test_call_non_function(self):
        frontend_error("int main(void){ int x = 1; return x(); }")

    def test_unknown_struct_member(self):
        frontend_error("""
struct p { int a; };
int main(void){ struct p v; return v.b; }""")

    def test_sizeof_void(self):
        frontend_error("int main(void){ return sizeof(void); }")

    def test_undeclared_in_condition(self):
        frontend_error("int main(void){ if (ghost) return 1; return 0; }")

    def test_unbalanced_braces(self):
        frontend_error("int main(void){ return 0;")

    def test_bad_intrinsic_arity(self):
        frontend_error("""
#include <cheriintrin.h>
int main(void){ int x; return (int)cheri_length_get(&x, 1); }""")

    def test_intrinsic_non_capability_struct(self):
        frontend_error("""
#include <cheriintrin.h>
struct s { int a; } v;
int main(void){ return (int)cheri_length_get(v); }""")


#: break/continue with no enclosing loop (or switch, for break) violate
#: the constraints of C11 6.8.6.2p1 and 6.8.6.3p1.
JUMP_WITHOUT_TARGET = {
    "break": "int main(void){ break; return 0; }",
    "continue": "int main(void){ continue; return 0; }",
    "continue-in-switch": """
int main(void){
  int x = 1;
  switch (x) { case 1: continue; }
  return 0;
}""",
}


@pytest.mark.parametrize("evaluator", ("ast", "core", "compiled"))
@pytest.mark.parametrize("program", sorted(JUMP_WITHOUT_TARGET))
def test_jump_without_target_is_a_frontend_error(program, evaluator):
    out = CERBERUS.run(JUMP_WITHOUT_TARGET[program], use_cache=False,
                       evaluator=evaluator)
    assert out.kind is OutcomeKind.ERROR, out.describe()
    assert "not within a loop" in out.detail, out.detail


class TestBuiltinMisuse:
    def test_printf_missing_args(self):
        frontend_error('#include <stdio.h>\n'
                       'int main(void){ printf("%d %d", 1); return 0; }')

    def test_printf_bad_conversion(self):
        frontend_error('#include <stdio.h>\n'
                       'int main(void){ printf("%Q", 1); return 0; }')

    def test_printf_dangling_percent(self):
        frontend_error('#include <stdio.h>\n'
                       'int main(void){ printf("%"); return 0; }')

    def test_memcpy_needs_pointers(self):
        frontend_error("""
#include <string.h>
int main(void){ memcpy(1, 2, 3); return 0; }""")

    def test_strlen_uninitialised_buffer(self):
        out = run_abstract("""
#include <string.h>
int main(void){ char b[8]; return (int)strlen(b); }""")
        assert out.kind is OutcomeKind.UNDEFINED


class TestConversionEdges:
    def test_bool_conversion_from_pointer(self):
        out = run_abstract("""
int main(void) {
  int x;
  _Bool t = &x;        /* non-null pointer -> 1 */
  _Bool f = (void*)0;  /* null -> 0 */
  return t * 10 + f;
}""")
        assert out.exit_status == 10

    def test_bool_narrowing_is_not_truncation(self):
        out = run_abstract("""
int main(void) {
  _Bool b = 256;       /* nonzero -> 1, not (char)256 == 0 */
  return b;
}""")
        assert out.exit_status == 1

    def test_void_cast_discards(self):
        out = run_abstract("""
int main(void) { int x = 5; (void)x; return 0; }""")
        assert out.ok

    def test_char_signedness(self):
        out = run_abstract("""
int main(void) {
  char c = (char)200;          /* implementation: signed char */
  return c < 0 ? 0 : 1;
}""")
        assert out.exit_status == 0

    def test_negative_modulo_conversion_to_unsigned(self):
        out = run_abstract("""
int main(void) {
  unsigned char u = (unsigned char)-1;
  return u == 255 ? 0 : 1;
}""")
        assert out.exit_status == 0

    def test_conditional_type_join(self):
        out = run_abstract("""
int main(void) {
  int a[2];
  int *p = 1 ? a : a + 1;
  return p == a ? 0 : 1;
}""")
        assert out.exit_status == 0
