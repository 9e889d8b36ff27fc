// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/cep/pred_vm.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace cepshed {

namespace {

/// VM stack capacity. The compiler tracks the exact depth each program
/// needs and refuses (interpreter fallback) anything deeper.
constexpr int kMaxVmStack = 64;
/// Pool / code-size ceiling: operands are uint16.
constexpr size_t kMaxPool = 65000;

constexpr ElemBinding kEmptyBinding{};

inline VmSlot MakeNull() {
  VmSlot s;
  s.i = 0;
  s.tag = VmSlot::kNull;
  return s;
}

inline VmSlot MakeInt(int64_t v) {
  VmSlot s;
  s.i = v;
  s.tag = VmSlot::kInt;
  return s;
}

inline VmSlot MakeDouble(double v) {
  VmSlot s;
  s.d = v;
  s.tag = VmSlot::kDouble;
  return s;
}

inline VmSlot MakeBool(bool b) { return MakeInt(b ? 1 : 0); }

inline bool IsNum(const VmSlot& s) {
  return s.tag == VmSlot::kInt || s.tag == VmSlot::kDouble;
}

/// Mirrors Value::ToDouble (non-numerics read as 0.0).
inline double SlotToDouble(const VmSlot& s) {
  if (s.tag == VmSlot::kInt) return static_cast<double>(s.i);
  if (s.tag == VmSlot::kDouble) return s.d;
  return 0.0;
}

/// Mirrors Expr::EvalBool truthiness: null and strings are false.
inline bool Truthy(const VmSlot& s) {
  if (s.tag == VmSlot::kInt) return s.i != 0;
  if (s.tag == VmSlot::kDouble) return s.d != 0.0;
  return false;
}

inline VmSlot FromValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      return MakeInt(v.AsInt());
    case ValueType::kDouble:
      return MakeDouble(v.AsDouble());
    case ValueType::kString: {
      VmSlot s;
      s.s = &v.AsString();
      s.tag = VmSlot::kStr;
      return s;
    }
    case ValueType::kNull:
      break;
  }
  return MakeNull();
}

/// Mirrors Value::Equals.
bool SlotEquals(const VmSlot& a, const VmSlot& b) {
  if (a.tag == VmSlot::kNull || b.tag == VmSlot::kNull) return false;
  if (a.tag == VmSlot::kStr || b.tag == VmSlot::kStr) {
    if (a.tag != b.tag) return false;
    return *a.s == *b.s;
  }
  if (a.tag == VmSlot::kInt && b.tag == VmSlot::kInt) return a.i == b.i;
  return SlotToDouble(a) == SlotToDouble(b);
}

/// Mirrors Value::Compare: -1/0/+1, or -2 for null or string/numeric mixes.
int SlotCompare(const VmSlot& a, const VmSlot& b) {
  if (a.tag == VmSlot::kNull || b.tag == VmSlot::kNull) return -2;
  const bool as = a.tag == VmSlot::kStr;
  const bool bs = b.tag == VmSlot::kStr;
  if (as != bs) return -2;
  if (as) {
    const int c = a.s->compare(*b.s);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.tag == VmSlot::kInt && b.tag == VmSlot::kInt) {
    return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
  }
  const double x = SlotToDouble(a);
  const double y = SlotToDouble(b);
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// Mirrors the kBinary arm of Expr::Eval (the node's cost is charged by the
/// dispatch loop): int path when both operands are ints, double promotion
/// otherwise, null on null/string operands and division by zero.
VmSlot SlotBinary(BinOp op, const VmSlot& l, const VmSlot& r) {
  if (l.tag == VmSlot::kNull || r.tag == VmSlot::kNull) return MakeNull();
  if (l.tag == VmSlot::kInt && r.tag == VmSlot::kInt) {
    const int64_t a = l.i;
    const int64_t b = r.i;
    switch (op) {
      case BinOp::kAdd: return MakeInt(a + b);
      case BinOp::kSub: return MakeInt(a - b);
      case BinOp::kMul: return MakeInt(a * b);
      case BinOp::kDiv: return b == 0 ? MakeNull() : MakeInt(a / b);
      case BinOp::kMod: return b == 0 ? MakeNull() : MakeInt(a % b);
    }
    return MakeNull();
  }
  if (!IsNum(l) || !IsNum(r)) return MakeNull();
  const double a = SlotToDouble(l);
  const double b = SlotToDouble(r);
  switch (op) {
    case BinOp::kAdd: return MakeDouble(a + b);
    case BinOp::kSub: return MakeDouble(a - b);
    case BinOp::kMul: return MakeDouble(a * b);
    case BinOp::kDiv: return b == 0.0 ? MakeNull() : MakeDouble(a / b);
    case BinOp::kMod: return b == 0.0 ? MakeNull() : MakeDouble(std::fmod(a, b));
  }
  return MakeNull();
}

/// Mirrors Expr::EvalAttr over the engine-filled context, including the
/// negation-witness substitution and current-event overlay.
VmSlot LoadAttrSlot(const VmAttrLoad& load, const EvalContext& ctx) {
  const int e = load.elem;
  if (e == ctx.negated_elem && ctx.negated != nullptr) {
    return FromValue(ctx.negated->attr(load.attr));
  }
  const ElemBinding& b =
      (e >= 0 && e < ctx.num_elements) ? ctx.bindings[e] : kEmptyBinding;
  if (e == ctx.current_elem && ctx.current != nullptr) {
    switch (load.selector) {
      case RefSelector::kSingle:
      case RefSelector::kIterCurr:
      case RefSelector::kLast:
        return FromValue(ctx.current->attr(load.attr));
      case RefSelector::kIterPrev:
        if (b.count == 0) return MakeNull();
        return FromValue(b.Last()->attr(load.attr));
      case RefSelector::kFirst:
        if (b.count == 0) return FromValue(ctx.current->attr(load.attr));
        return FromValue(b.First()->attr(load.attr));
    }
    return MakeNull();
  }
  if (b.count == 0) return MakeNull();
  switch (load.selector) {
    case RefSelector::kSingle:
    case RefSelector::kFirst:
      return FromValue(b.First()->attr(load.attr));
    case RefSelector::kLast:
    case RefSelector::kIterCurr:
      return FromValue(b.Last()->attr(load.attr));
    case RefSelector::kIterPrev:
      return FromValue(b.PrevLast()->attr(load.attr));
  }
  return MakeNull();
}

// The generic arithmetic opcodes map positionally onto BinOp.
static_assert(static_cast<int>(VmOp::kMod) - static_cast<int>(VmOp::kAdd) ==
                  static_cast<int>(BinOp::kMod) - static_cast<int>(BinOp::kAdd),
              "generic arithmetic opcodes must mirror BinOp order");
// The fused compare families map positionally onto CmpOp.
static_assert(static_cast<int>(VmOp::kFGeAA) - static_cast<int>(VmOp::kFEqAA) ==
                      static_cast<int>(CmpOp::kGe) - static_cast<int>(CmpOp::kEq) &&
                  static_cast<int>(VmOp::kFGeAC) - static_cast<int>(VmOp::kFEqAC) ==
                      static_cast<int>(CmpOp::kGe) - static_cast<int>(CmpOp::kEq),
              "fused compare opcodes must mirror CmpOp order");

/// FusedCompare's compare tail: typed fast paths when both tags agree,
/// interpreter-equivalent generic fallback otherwise (nulls compare to
/// null, which Truthy maps to false).
VmSlot CompareSlots(const VmSlot& l, const VmSlot& r, CmpOp op) {
  if (l.tag == VmSlot::kInt && r.tag == VmSlot::kInt) {
    switch (op) {
      case CmpOp::kEq: return MakeBool(l.i == r.i);
      case CmpOp::kNe: return MakeBool(l.i != r.i);
      case CmpOp::kLt: return MakeBool(l.i < r.i);
      case CmpOp::kLe: return MakeBool(l.i <= r.i);
      case CmpOp::kGt: return MakeBool(l.i > r.i);
      case CmpOp::kGe: return MakeBool(l.i >= r.i);
    }
    return MakeNull();
  }
  if (l.tag == VmSlot::kDouble && r.tag == VmSlot::kDouble) {
    switch (op) {
      case CmpOp::kEq: return MakeBool(l.d == r.d);
      case CmpOp::kNe: return MakeBool(l.d != r.d);
      case CmpOp::kLt: return MakeBool(l.d < r.d);
      case CmpOp::kLe: return MakeBool(l.d <= r.d);
      case CmpOp::kGt: return MakeBool(l.d > r.d);
      case CmpOp::kGe: return MakeBool(l.d >= r.d);
    }
    return MakeNull();
  }
  switch (op) {
    case CmpOp::kEq:
      return MakeBool(SlotEquals(l, r));
    case CmpOp::kNe:
      if (l.tag == VmSlot::kNull || r.tag == VmSlot::kNull) return MakeNull();
      return MakeBool(!SlotEquals(l, r));
    default: {
      const int cmp = SlotCompare(l, r);
      if (cmp == -2) return MakeNull();
      switch (op) {
        case CmpOp::kLt: return MakeBool(cmp < 0);
        case CmpOp::kLe: return MakeBool(cmp <= 0);
        case CmpOp::kGt: return MakeBool(cmp > 0);
        default: return MakeBool(cmp >= 0);
      }
    }
  }
}

}  // namespace

// Register-cached attribute load; charges basic whether or not it hits,
// matching the interpreter (which re-walks the binding every time).
inline VmSlot PredVmModule::CachedLoad(uint16_t r, const EvalContext& ctx,
                                       PredVmContext* vmc, double* c) const {
  *c += kExprCostBasic;
  if (vmc->epochs_[r] == vmc->epoch_) return vmc->regs_[r];
  const VmSlot s = LoadAttrSlot(loads_[r], ctx);
  vmc->regs_[r] = s;
  vmc->epochs_[r] = vmc->epoch_;
  return s;
}

// One fused compare: both loads, the tag-guarded compare, and the unfused
// sequence's exact cost. Shared by the dispatch loop and the EvalBool fast
// path for single-compare programs.
inline VmSlot PredVmModule::FusedCompare(const VmInsn& in,
                                         const EvalContext& ctx,
                                         PredVmContext* vmc, double* c) const {
  const bool ac = in.op >= VmOp::kFEqAC;
  const VmSlot l = CachedLoad(in.a, ctx, vmc, c);
  const VmSlot r = ac ? const_slots_[in.b] : CachedLoad(in.b, ctx, vmc, c);
  *c += kExprCostBasic;
  const CmpOp op = static_cast<CmpOp>(
      static_cast<int>(in.op) -
      static_cast<int>(ac ? VmOp::kFEqAC : VmOp::kFEqAA));
  return CompareSlots(l, r, op);
}

VmSlot PredVmModule::Run(const Program& p, const EvalContext& ctx,
                         PredVmContext* vmc, double* cost) const {
  VmSlot stack[kMaxVmStack];
  VmSlot* sp = stack;
  double c = 0.0;
  const VmInsn* const code = p.code.data();
  const VmInsn* pc = code;
  const auto load = [&](uint16_t r) -> VmSlot {
    return CachedLoad(r, ctx, vmc, &c);
  };
  for (;;) {
    const VmInsn in = *pc++;
    switch (in.op) {
      case VmOp::kConst:
        c += costs_[in.b];
        *sp++ = const_slots_[in.a];
        break;
      case VmOp::kPushNull:
        *sp++ = MakeNull();
        break;
      case VmOp::kPushBool:
        *sp++ = MakeInt(in.a);
        break;
      case VmOp::kAddCost:
        c += costs_[in.b];
        break;
      case VmOp::kLoadAttr:
        *sp++ = load(in.a);
        break;
      case VmOp::kAdd:
      case VmOp::kSub:
      case VmOp::kMul:
      case VmOp::kDiv:
      case VmOp::kMod: {
        c += kExprCostBasic;
        const VmSlot r = *--sp;
        sp[-1] = SlotBinary(static_cast<BinOp>(static_cast<int>(in.op) -
                                               static_cast<int>(VmOp::kAdd)),
                            sp[-1], r);
        break;
      }
// Typed fast paths: the tag guard falls back to the interpreter-equivalent
// generic handler, so mis-typed payloads keep reference semantics.
#define CEPSHED_VM_BIN_II(BOP, EXPR)                              \
  {                                                               \
    c += kExprCostBasic;                                          \
    const VmSlot r = *--sp;                                       \
    const VmSlot l = sp[-1];                                      \
    if (l.tag == VmSlot::kInt && r.tag == VmSlot::kInt) {         \
      sp[-1] = (EXPR);                                            \
    } else {                                                      \
      sp[-1] = SlotBinary(BOP, l, r);                             \
    }                                                             \
    break;                                                        \
  }
#define CEPSHED_VM_BIN_DD(BOP, EXPR)                              \
  {                                                               \
    c += kExprCostBasic;                                          \
    const VmSlot r = *--sp;                                       \
    const VmSlot l = sp[-1];                                      \
    if (l.tag == VmSlot::kDouble && r.tag == VmSlot::kDouble) {   \
      sp[-1] = (EXPR);                                            \
    } else {                                                      \
      sp[-1] = SlotBinary(BOP, l, r);                             \
    }                                                             \
    break;                                                        \
  }
      case VmOp::kAddII:
        CEPSHED_VM_BIN_II(BinOp::kAdd, MakeInt(l.i + r.i))
      case VmOp::kSubII:
        CEPSHED_VM_BIN_II(BinOp::kSub, MakeInt(l.i - r.i))
      case VmOp::kMulII:
        CEPSHED_VM_BIN_II(BinOp::kMul, MakeInt(l.i * r.i))
      case VmOp::kDivII:
        CEPSHED_VM_BIN_II(BinOp::kDiv,
                          r.i == 0 ? MakeNull() : MakeInt(l.i / r.i))
      case VmOp::kModII:
        CEPSHED_VM_BIN_II(BinOp::kMod,
                          r.i == 0 ? MakeNull() : MakeInt(l.i % r.i))
      case VmOp::kAddDD:
        CEPSHED_VM_BIN_DD(BinOp::kAdd, MakeDouble(l.d + r.d))
      case VmOp::kSubDD:
        CEPSHED_VM_BIN_DD(BinOp::kSub, MakeDouble(l.d - r.d))
      case VmOp::kMulDD:
        CEPSHED_VM_BIN_DD(BinOp::kMul, MakeDouble(l.d * r.d))
      case VmOp::kDivDD:
        CEPSHED_VM_BIN_DD(BinOp::kDiv,
                          r.d == 0.0 ? MakeNull() : MakeDouble(l.d / r.d))
#undef CEPSHED_VM_BIN_II
#undef CEPSHED_VM_BIN_DD
      case VmOp::kEq: {
        c += kExprCostBasic;
        const VmSlot r = *--sp;
        sp[-1] = MakeBool(SlotEquals(sp[-1], r));
        break;
      }
      case VmOp::kNe: {
        c += kExprCostBasic;
        const VmSlot r = *--sp;
        const VmSlot l = sp[-1];
        sp[-1] = (l.tag == VmSlot::kNull || r.tag == VmSlot::kNull)
                     ? MakeNull()
                     : MakeBool(!SlotEquals(l, r));
        break;
      }
#define CEPSHED_VM_CMP_ORD(REL)                                   \
  {                                                               \
    c += kExprCostBasic;                                          \
    const VmSlot r = *--sp;                                       \
    const int cmp = SlotCompare(sp[-1], r);                       \
    sp[-1] = cmp == -2 ? MakeNull() : MakeBool(cmp REL 0);        \
    break;                                                        \
  }
      case VmOp::kLt:
        CEPSHED_VM_CMP_ORD(<)
      case VmOp::kLe:
        CEPSHED_VM_CMP_ORD(<=)
      case VmOp::kGt:
        CEPSHED_VM_CMP_ORD(>)
      case VmOp::kGe:
        CEPSHED_VM_CMP_ORD(>=)
#undef CEPSHED_VM_CMP_ORD
      case VmOp::kEqII: {
        c += kExprCostBasic;
        const VmSlot r = *--sp;
        const VmSlot l = sp[-1];
        sp[-1] = (l.tag == VmSlot::kInt && r.tag == VmSlot::kInt)
                     ? MakeBool(l.i == r.i)
                     : MakeBool(SlotEquals(l, r));
        break;
      }
      case VmOp::kNeII: {
        c += kExprCostBasic;
        const VmSlot r = *--sp;
        const VmSlot l = sp[-1];
        if (l.tag == VmSlot::kInt && r.tag == VmSlot::kInt) {
          sp[-1] = MakeBool(l.i != r.i);
        } else {
          sp[-1] = (l.tag == VmSlot::kNull || r.tag == VmSlot::kNull)
                       ? MakeNull()
                       : MakeBool(!SlotEquals(l, r));
        }
        break;
      }
      case VmOp::kEqDD: {
        c += kExprCostBasic;
        const VmSlot r = *--sp;
        const VmSlot l = sp[-1];
        sp[-1] = (l.tag == VmSlot::kDouble && r.tag == VmSlot::kDouble)
                     ? MakeBool(l.d == r.d)
                     : MakeBool(SlotEquals(l, r));
        break;
      }
      case VmOp::kNeDD: {
        c += kExprCostBasic;
        const VmSlot r = *--sp;
        const VmSlot l = sp[-1];
        if (l.tag == VmSlot::kDouble && r.tag == VmSlot::kDouble) {
          sp[-1] = MakeBool(l.d != r.d);
        } else {
          sp[-1] = (l.tag == VmSlot::kNull || r.tag == VmSlot::kNull)
                       ? MakeNull()
                       : MakeBool(!SlotEquals(l, r));
        }
        break;
      }
#define CEPSHED_VM_CMP_II(REL)                                    \
  {                                                               \
    c += kExprCostBasic;                                          \
    const VmSlot r = *--sp;                                       \
    const VmSlot l = sp[-1];                                      \
    if (l.tag == VmSlot::kInt && r.tag == VmSlot::kInt) {         \
      sp[-1] = MakeBool(l.i REL r.i);                             \
    } else {                                                      \
      const int cmp = SlotCompare(l, r);                          \
      sp[-1] = cmp == -2 ? MakeNull() : MakeBool(cmp REL 0);      \
    }                                                             \
    break;                                                        \
  }
#define CEPSHED_VM_CMP_DD(REL)                                    \
  {                                                               \
    c += kExprCostBasic;                                          \
    const VmSlot r = *--sp;                                       \
    const VmSlot l = sp[-1];                                      \
    if (l.tag == VmSlot::kDouble && r.tag == VmSlot::kDouble) {   \
      sp[-1] = MakeBool(l.d REL r.d);                             \
    } else {                                                      \
      const int cmp = SlotCompare(l, r);                          \
      sp[-1] = cmp == -2 ? MakeNull() : MakeBool(cmp REL 0);      \
    }                                                             \
    break;                                                        \
  }
      case VmOp::kLtII:
        CEPSHED_VM_CMP_II(<)
      case VmOp::kLeII:
        CEPSHED_VM_CMP_II(<=)
      case VmOp::kGtII:
        CEPSHED_VM_CMP_II(>)
      case VmOp::kGeII:
        CEPSHED_VM_CMP_II(>=)
      case VmOp::kLtDD:
        CEPSHED_VM_CMP_DD(<)
      case VmOp::kLeDD:
        CEPSHED_VM_CMP_DD(<=)
      case VmOp::kGtDD:
        CEPSHED_VM_CMP_DD(>)
      case VmOp::kGeDD:
        CEPSHED_VM_CMP_DD(>=)
#undef CEPSHED_VM_CMP_II
#undef CEPSHED_VM_CMP_DD
      case VmOp::kNot:
        sp[-1] = MakeBool(!Truthy(sp[-1]));
        break;
      case VmOp::kJmp:
        pc = code + in.a;
        break;
      case VmOp::kJmpFalse:
        if (!Truthy(*--sp)) pc = code + in.a;
        break;
      case VmOp::kJmpTrue:
        if (Truthy(*--sp)) pc = code + in.a;
        break;
      case VmOp::kSqrt: {
        VmSlot& t = sp[-1];
        if (!IsNum(t)) {
          t = MakeNull();
          break;
        }
        c += kExprCostSqrt;
        const double d = SlotToDouble(t);
        t = d < 0.0 ? MakeNull() : MakeDouble(std::sqrt(d));
        break;
      }
      case VmOp::kAbs: {
        VmSlot& t = sp[-1];
        if (!IsNum(t)) {
          t = MakeNull();
          break;
        }
        c += kExprCostBasic;
        t = t.tag == VmSlot::kInt ? MakeInt(std::abs(t.i))
                                  : MakeDouble(std::fabs(SlotToDouble(t)));
        break;
      }
      case VmOp::kCheckNumJmp:
        if (!IsNum(sp[-1])) {
          sp -= 1 + in.b;
          pc = code + in.a;
        }
        break;
      case VmOp::kAvgFin: {
        const int n = in.a;
        double sum = 0.0;
        // Child order, matching the interpreter's fold (double addition is
        // order-sensitive).
        for (int k = n; k >= 1; --k) sum += SlotToDouble(sp[-k]);
        sp -= n;
        *sp++ = MakeDouble(sum / static_cast<double>(n));
        break;
      }
      case VmOp::kInSet: {
        c += kExprCostBasic;
        const VmSlot v = *--sp;
        if (v.tag == VmSlot::kNull) {
          *sp++ = MakeNull();
          break;
        }
        int64_t hit = 0;
        for (const VmSlot& m : set_slots_[in.a]) {
          if (SlotEquals(v, m)) {
            hit = 1;
            break;
          }
        }
        *sp++ = MakeInt(hit);
        break;
      }
      case VmOp::kFEqAA:
      case VmOp::kFNeAA:
      case VmOp::kFLtAA:
      case VmOp::kFLeAA:
      case VmOp::kFGtAA:
      case VmOp::kFGeAA:
      case VmOp::kFEqAC:
      case VmOp::kFNeAC:
      case VmOp::kFLtAC:
      case VmOp::kFLeAC:
      case VmOp::kFGtAC:
      case VmOp::kFGeAC:
        *sp++ = FusedCompare(in, ctx, vmc, &c);
        break;
      case VmOp::kHalt:
        if (cost != nullptr) *cost += c;
        return sp[-1];
    }
  }
}

bool PredVmModule::EvalBool(int prog, const EvalContext& ctx, PredVmContext* vmc,
                            double* cost) const {
  const Program& p = programs_[static_cast<size_t>(prog)];
  // A single fused compare (the dominant paper-query predicate shape) skips
  // the dispatch loop and its stack entirely.
  if (p.code.size() == 2 && p.code[0].op >= VmOp::kFEqAA &&
      p.code[0].op <= VmOp::kFGeAC) {
    double c = 0.0;
    const VmSlot s = FusedCompare(p.code[0], ctx, vmc, &c);
    if (cost != nullptr) *cost += c;
    return Truthy(s);
  }
  return Truthy(Run(p, ctx, vmc, cost));
}

Value PredVmModule::Eval(int prog, const EvalContext& ctx, PredVmContext* vmc,
                         double* cost) const {
  const Program& p = programs_[static_cast<size_t>(prog)];
  // Join-index build keys are usually one bare attribute load.
  if (p.code.size() == 2 && p.code[0].op == VmOp::kLoadAttr) {
    double c = 0.0;
    const VmSlot s = CachedLoad(p.code[0].a, ctx, vmc, &c);
    if (cost != nullptr) *cost += c;
    switch (s.tag) {
      case VmSlot::kInt:
        return Value(s.i);
      case VmSlot::kDouble:
        return Value(s.d);
      case VmSlot::kStr:
        return Value(*s.s);
      default:
        return Value();
    }
  }
  const VmSlot s = Run(p, ctx, vmc, cost);
  switch (s.tag) {
    case VmSlot::kInt:
      return Value(s.i);
    case VmSlot::kDouble:
      return Value(s.d);
    case VmSlot::kStr:
      return Value(*s.s);
    default:
      return Value();
  }
}

std::string PredVmModule::Disassemble(int prog) const {
  static const char* const kNames[] = {
      "const",  "pushnull", "pushbool", "addcost", "loadattr", "add",   "sub",
      "mul",    "div",      "mod",      "add.ii",  "sub.ii",   "mul.ii", "div.ii",
      "mod.ii", "add.dd",   "sub.dd",   "mul.dd",  "div.dd",   "eq",    "ne",
      "lt",     "le",       "gt",       "ge",      "eq.ii",    "ne.ii", "lt.ii",
      "le.ii",  "gt.ii",    "ge.ii",    "eq.dd",   "ne.dd",    "lt.dd", "le.dd",
      "gt.dd",  "ge.dd",    "not",      "jmp",     "jmp.false", "jmp.true",
      "sqrt",   "abs",      "checknum", "avgfin",  "inset",
      "feq.aa", "fne.aa",   "flt.aa",   "fle.aa",  "fgt.aa",   "fge.aa",
      "feq.ac", "fne.ac",   "flt.ac",   "fle.ac",  "fgt.ac",   "fge.ac",
      "halt"};
  std::ostringstream os;
  const Program& p = programs_[static_cast<size_t>(prog)];
  for (size_t i = 0; i < p.code.size(); ++i) {
    const VmInsn& in = p.code[i];
    os << i << ": " << kNames[static_cast<size_t>(in.op)] << " " << in.a << " "
       << in.b;
    if (in.op == VmOp::kConst) os << "  ; " << const_values_[in.a].ToString();
    if (in.op == VmOp::kLoadAttr) {
      const VmAttrLoad& l = loads_[in.a];
      os << "  ; elem=" << l.elem << " attr=" << l.attr << " sel="
         << static_cast<int>(l.selector);
    }
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct PredVmBuilder::EmitState {
  std::vector<VmInsn> code;
  int depth = 0;
  int max_depth = 0;
  bool ok = true;

  size_t Emit(VmOp op, uint16_t a = 0, uint16_t b = 0) {
    code.push_back(VmInsn{op, a, b});
    return code.size() - 1;
  }
  void Push(int n = 1) {
    depth += n;
    if (depth > max_depth) max_depth = depth;
  }
  void Pop(int n = 1) { depth -= n; }
  /// Points jump instruction `at` at the next emitted instruction.
  void PatchJump(size_t at) { code[at].a = static_cast<uint16_t>(code.size()); }
};

namespace {

bool IsConstExpr(const Expr& e) {
  if (e.kind() == ExprKind::kAttrRef || e.kind() == ExprKind::kAggregate) {
    return false;
  }
  for (const ExprPtr& child : e.children()) {
    if (!IsConstExpr(*child)) return false;
  }
  return true;
}

}  // namespace

uint16_t PredVmBuilder::InternLoad(const Expr& ref) {
  const auto key = std::make_tuple(ref.elem_index(),
                                   static_cast<int>(ref.selector()),
                                   ref.attr_index());
  const auto [it, inserted] =
      load_ids_.try_emplace(key, static_cast<uint16_t>(module_->loads_.size()));
  if (inserted) {
    module_->loads_.push_back(VmAttrLoad{static_cast<int16_t>(ref.elem_index()),
                                         static_cast<int16_t>(ref.attr_index()),
                                         ref.selector()});
  }
  return it->second;
}

uint16_t PredVmBuilder::InternCost(double cost) {
  for (size_t i = 0; i < module_->costs_.size(); ++i) {
    if (module_->costs_[i] == cost) return static_cast<uint16_t>(i);
  }
  module_->costs_.push_back(cost);
  return static_cast<uint16_t>(module_->costs_.size() - 1);
}

void PredVmBuilder::EmitConst(Value v, double folded_cost, EmitState* st) {
  const uint16_t cost_idx = InternCost(folded_cost);
  module_->const_values_.push_back(std::move(v));
  st->Emit(VmOp::kConst,
           static_cast<uint16_t>(module_->const_values_.size() - 1), cost_idx);
  st->Push();
}

PredVmBuilder::StaticType PredVmBuilder::EmitExpr(const Expr& e, EmitState* st) {
  if (!st->ok) return StaticType::kUnknown;

  if (IsConstExpr(e)) {
    // Fold through the interpreter itself: value and accumulated cost are
    // exactly what Expr::Eval would produce (constant subtrees read nothing
    // from the context, so an empty one is sound).
    EvalContext empty;
    double folded = 0.0;
    Value v = e.Eval(empty, &folded);
    StaticType t = StaticType::kUnknown;
    if (v.type() == ValueType::kInt) t = StaticType::kInt;
    if (v.type() == ValueType::kDouble) t = StaticType::kDouble;
    if (v.type() == ValueType::kString) t = StaticType::kString;
    EmitConst(std::move(v), folded, st);
    return t;
  }

  switch (e.kind()) {
    case ExprKind::kLiteral:
      break;  // constant; handled above
    case ExprKind::kAttrRef: {
      if (e.elem_index() < 0 || e.attr_index() < 0 ||
          static_cast<size_t>(e.attr_index()) >= schema_->num_attributes()) {
        st->ok = false;  // unresolved reference: keep the interpreter
        return StaticType::kUnknown;
      }
      st->Emit(VmOp::kLoadAttr, InternLoad(e));
      st->Push();
      // The declared type is a specialization hint; events may still carry
      // null or a mismatched payload, which the typed opcodes guard against.
      switch (schema_->attribute(e.attr_index()).type) {
        case ValueType::kInt: return StaticType::kInt;
        case ValueType::kDouble: return StaticType::kDouble;
        case ValueType::kString: return StaticType::kString;
        default: return StaticType::kUnknown;
      }
    }
    case ExprKind::kBinary: {
      const StaticType lt = EmitExpr(*e.children()[0], st);
      const StaticType rt = EmitExpr(*e.children()[1], st);
      const int generic = static_cast<int>(VmOp::kAdd) +
                          (static_cast<int>(e.bin_op()) -
                           static_cast<int>(BinOp::kAdd));
      VmOp op = static_cast<VmOp>(generic);
      if (lt == StaticType::kInt && rt == StaticType::kInt) {
        op = static_cast<VmOp>(static_cast<int>(VmOp::kAddII) +
                               (generic - static_cast<int>(VmOp::kAdd)));
      } else if (lt == StaticType::kDouble && rt == StaticType::kDouble &&
                 e.bin_op() != BinOp::kMod) {
        op = static_cast<VmOp>(static_cast<int>(VmOp::kAddDD) +
                               (generic - static_cast<int>(VmOp::kAdd)));
      }
      st->Emit(op);
      st->Pop();
      if (lt == StaticType::kInt && rt == StaticType::kInt) return StaticType::kInt;
      const bool lnum = lt == StaticType::kInt || lt == StaticType::kDouble;
      const bool rnum = rt == StaticType::kInt || rt == StaticType::kDouble;
      return lnum && rnum ? StaticType::kDouble : StaticType::kUnknown;
    }
    case ExprKind::kCompare: {
      // Superinstruction fusion for the dominant shapes `attr CMP attr` and
      // `attr CMP literal`: one dispatch instead of three. `literal CMP attr`
      // canonicalizes via the mirrored operator. Constants must carry zero
      // folded cost (plain literals do) so the fused cost stays exact.
      const Expr& le = *e.children()[0];
      const Expr& re = *e.children()[1];
      const int foff = static_cast<int>(e.cmp_op()) - static_cast<int>(CmpOp::kEq);
      const auto fusable = [this](const Expr& x) {
        return x.kind() == ExprKind::kAttrRef && x.elem_index() >= 0 &&
               x.attr_index() >= 0 &&
               static_cast<size_t>(x.attr_index()) < schema_->num_attributes();
      };
      if (fusable(le) && fusable(re)) {
        const uint16_t ll = InternLoad(le);
        const uint16_t rl = InternLoad(re);
        st->Emit(static_cast<VmOp>(static_cast<int>(VmOp::kFEqAA) + foff), ll, rl);
        st->Push();
        return StaticType::kInt;
      }
      // Eq/Ne are symmetric; Lt<->Gt and Le<->Ge swap when the attr moves left.
      static constexpr int kMirror[6] = {0, 1, 4, 5, 2, 3};
      const bool ac = fusable(le) && IsConstExpr(re);
      const bool ca = !ac && fusable(re) && IsConstExpr(le);
      if (ac || ca) {
        EvalContext empty;
        double folded = 0.0;
        Value v = (ac ? re : le).Eval(empty, &folded);
        if (folded == 0.0 && module_->const_values_.size() < kMaxPool) {
          module_->const_values_.push_back(std::move(v));
          const uint16_t ci =
              static_cast<uint16_t>(module_->const_values_.size() - 1);
          st->Emit(static_cast<VmOp>(static_cast<int>(VmOp::kFEqAC) +
                                     (ac ? foff : kMirror[foff])),
                   InternLoad(ac ? le : re), ci);
          st->Push();
          return StaticType::kInt;
        }
      }
      const StaticType lt = EmitExpr(*e.children()[0], st);
      const StaticType rt = EmitExpr(*e.children()[1], st);
      const int off = static_cast<int>(e.cmp_op()) - static_cast<int>(CmpOp::kEq);
      VmOp op = static_cast<VmOp>(static_cast<int>(VmOp::kEq) + off);
      if (lt == StaticType::kInt && rt == StaticType::kInt) {
        op = static_cast<VmOp>(static_cast<int>(VmOp::kEqII) + off);
      } else if (lt == StaticType::kDouble && rt == StaticType::kDouble) {
        op = static_cast<VmOp>(static_cast<int>(VmOp::kEqDD) + off);
      }
      st->Emit(op);
      st->Pop();
      return StaticType::kInt;
    }
    case ExprKind::kAnd: {
      std::vector<size_t> fixups;
      for (const ExprPtr& child : e.children()) {
        EmitExpr(*child, st);
        fixups.push_back(st->Emit(VmOp::kJmpFalse));
        st->Pop();
      }
      st->Emit(VmOp::kPushBool, 1);
      st->Push();
      const size_t jend = st->Emit(VmOp::kJmp);
      for (const size_t f : fixups) st->PatchJump(f);
      st->Emit(VmOp::kPushBool, 0);  // converges to the same depth
      st->PatchJump(jend);
      return StaticType::kInt;
    }
    case ExprKind::kOr: {
      std::vector<size_t> fixups;
      for (const ExprPtr& child : e.children()) {
        EmitExpr(*child, st);
        fixups.push_back(st->Emit(VmOp::kJmpTrue));
        st->Pop();
      }
      st->Emit(VmOp::kPushBool, 0);
      st->Push();
      const size_t jend = st->Emit(VmOp::kJmp);
      for (const size_t f : fixups) st->PatchJump(f);
      st->Emit(VmOp::kPushBool, 1);
      st->PatchJump(jend);
      return StaticType::kInt;
    }
    case ExprKind::kNot:
      EmitExpr(*e.children()[0], st);
      st->Emit(VmOp::kNot);
      return StaticType::kInt;
    case ExprKind::kFunc: {
      if (e.func() == FuncKind::kAvgN) {
        st->Emit(VmOp::kAddCost, 0, InternCost(kExprCostBasic));
        const int n = static_cast<int>(e.children().size());
        if (n == 0) {  // unreachable via the parser; constant-folded anyway
          st->Emit(VmOp::kPushNull);
          st->Push();
          return StaticType::kUnknown;
        }
        std::vector<size_t> fixups;
        for (int i = 0; i < n; ++i) {
          EmitExpr(*e.children()[static_cast<size_t>(i)], st);
          fixups.push_back(st->Emit(VmOp::kCheckNumJmp, 0,
                                    static_cast<uint16_t>(i)));
        }
        st->Emit(VmOp::kAvgFin, static_cast<uint16_t>(n));
        st->Pop(n);
        st->Push();
        const size_t jend = st->Emit(VmOp::kJmp);
        for (const size_t f : fixups) st->PatchJump(f);
        st->Emit(VmOp::kPushNull);  // the non-numeric bailout path
        st->PatchJump(jend);
        return StaticType::kDouble;
      }
      const StaticType at = EmitExpr(*e.children()[0], st);
      st->Emit(e.func() == FuncKind::kSqrt ? VmOp::kSqrt : VmOp::kAbs);
      if (e.func() == FuncKind::kSqrt) return StaticType::kDouble;
      return at == StaticType::kInt || at == StaticType::kDouble
                 ? at
                 : StaticType::kUnknown;
    }
    case ExprKind::kInSet: {
      EmitExpr(*e.children()[0], st);
      module_->set_values_.push_back(e.set_values());
      st->Emit(VmOp::kInSet,
               static_cast<uint16_t>(module_->set_values_.size() - 1));
      return StaticType::kInt;
    }
    case ExprKind::kAggregate:
      st->ok = false;  // aggregates keep the interpreter (span folds)
      return StaticType::kUnknown;
  }
  st->ok = false;
  return StaticType::kUnknown;
}

int PredVmBuilder::Add(const Expr& expr) {
  if (built_ || module_ == nullptr) return -1;
  if (expr.HasAggregate()) return -1;
  EmitState st;
  EmitExpr(expr, &st);
  st.Emit(VmOp::kHalt);
  if (!st.ok || st.depth != 1 || st.max_depth > kMaxVmStack ||
      st.code.size() > kMaxPool || module_->loads_.size() > kMaxPool ||
      module_->const_values_.size() > kMaxPool ||
      module_->set_values_.size() > kMaxPool ||
      module_->costs_.size() > kMaxPool) {
    return -1;  // interned pool entries are retained but harmless
  }
  assert(st.depth == 1);
  module_->programs_.push_back(PredVmModule::Program{std::move(st.code)});
  return module_->num_programs() - 1;
}

std::shared_ptr<const PredVmModule> PredVmBuilder::Build() {
  if (built_ || module_ == nullptr) return nullptr;
  built_ = true;
  // Unbox the pools only now: string slots borrow the pooled std::string
  // storage, whose addresses are stable once the vectors stop growing.
  module_->const_slots_.reserve(module_->const_values_.size());
  for (const Value& v : module_->const_values_) {
    module_->const_slots_.push_back(FromValue(v));
  }
  module_->set_slots_.reserve(module_->set_values_.size());
  for (const std::vector<Value>& set : module_->set_values_) {
    std::vector<VmSlot> slots;
    slots.reserve(set.size());
    for (const Value& v : set) slots.push_back(FromValue(v));
    module_->set_slots_.push_back(std::move(slots));
  }
  return std::shared_ptr<const PredVmModule>(std::move(module_));
}

}  // namespace cepshed
