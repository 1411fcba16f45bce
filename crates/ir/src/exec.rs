//! Slot-compiled executor for lowered Stage III IR.
//!
//! The reference interpreter ([`crate::eval`]) resolves every variable and
//! buffer through name-keyed hash maps in the innermost loops. That is the
//! right shape for a semantics definition and the wrong shape for a hot
//! path: every kernel validation, autotuning trial and paper-figure run
//! pays a string hash per variable read. This module splits execution into
//! two phases, mirroring how TACO-lineage systems separate code generation
//! from execution:
//!
//! 1. **Compile** ([`Runtime::compile`]): walk a [`PrimFunc`] once, resolve
//!    every [`Var`] and buffer name to a dense integer slot, statically
//!    type every expression (variables are always integers, buffer loads
//!    are typed by the buffer's dtype), fold constants, and lower the body
//!    into a typed statement tree with no string lookups and no per-step
//!    allocation. The tree is then lowered once more, to a **flat
//!    bytecode** stream (the `bytecode` submodule): jump-encoded loops and
//!    fused microkernels embedded as superinstructions, driven by a single
//!    `ip`-dispatch loop.
//! 2. **Execute** ([`CompiledKernel::run`]): bind scalar parameters and
//!    tensor storage into a flat frame (a `Vec<i64>` of scalar slots and a
//!    table of raw buffer views) and run the bytecode. Outermost loops
//!    bound to `blockIdx.*` dispatch their iterations across OS threads —
//!    blocks are spatial by construction in SparseTIR's model (§3.3), and
//!    a conservative taint analysis double-checks that every write is
//!    indexed by the block variable before parallelizing.
//!
//! Compiled kernels are cached by function identity in a [`Runtime`]
//! (compile once, run many), so repeated validation/autotuning of the same
//! function costs one compilation. The interpreter remains the semantics
//! oracle: the differential suite in `crates/ir/tests/exec_differential.rs`
//! asserts bit-identical results between the two on random lowered
//! programs.
//!
//! Arithmetic is replicated exactly: floats compute in `f64` and store as
//! `f32`, integer division is euclidean with explicit divide-by-zero
//! errors, casts to integer round-trip through `f64`, and per-dimension
//! bounds checks fire with the interpreter's error wording.
//!
//! During bytecode lowering a **dense-lane fusion analysis** (the `fuse`
//! submodule) recognizes innermost loops over contiguous dense axes (the
//! feature dimension of SpMM/SDDMM, ELL bucket lanes) and emits them as
//! specialized microkernel superinstructions — `FillLanes`, `AxpyLanes`,
//! `DotLanes`, `GatherScaleAccumulate` — that run tight per-lane loops
//! instead of per-element instruction dispatch. Fusion is on by default
//! (`Runtime::with_fusion(false)` disables it); the generic loop is
//! lowered right behind every superinstruction as the bit-exact
//! fallback, and the
//! kernel-cache key includes the fusion flag so toggling it never serves
//! a stale compiled kernel. [`CompiledKernel::disassemble`] renders the
//! bytecode as a stable text listing — see the `disasm` submodule and the
//! golden-file tests under `tests/golden/`.

use crate::buffer::Buffer;
use crate::eval::TensorData;
use crate::expr::{BinOp, Expr, Intrinsic, Var};
use crate::func::PrimFunc;
use crate::printer::print_func;
use crate::stmt::{ForKind, IterKind, Stmt, TensorTile};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

mod bytecode;
mod disasm;
mod fuse;

/// Error raised while compiling or executing a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    message: String,
}

impl ExecError {
    fn new(message: impl Into<String>) -> Self {
        ExecError { message: message.into() }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "executor error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

fn oob(name: &str, idx: usize, len: usize) -> ExecError {
    ExecError::new(format!("flat index {idx} out of bounds (len {len}) in buffer `{name}`"))
}

// ---------------------------------------------------------------------------
// Compiled program representation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FloatOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Integer-typed compiled expression. Slots index the scalar frame.
#[derive(Debug, Clone, PartialEq)]
enum IntExpr {
    Const(i64),
    Slot(u32),
    Bin {
        op: IntOp,
        lhs: Box<IntExpr>,
        rhs: Box<IntExpr>,
    },
    Select {
        cond: Box<BoolExpr>,
        then_: Box<IntExpr>,
        else_: Box<IntExpr>,
    },
    /// Cast to an integer dtype: the interpreter routes every such cast
    /// through `f64` (`as_float() as i64`), replicated here exactly.
    CastViaF64(Box<FloatExpr>),
    BoolToInt(Box<BoolExpr>),
    Load {
        buf: u32,
        index: IndexExpr,
    },
    BinarySearch {
        buf: u32,
        name: String,
        lo: Box<IntExpr>,
        hi: Box<IntExpr>,
        x: Box<IntExpr>,
    },
}

/// Float-typed compiled expression (computes in `f64` like the interpreter).
#[derive(Debug, Clone, PartialEq)]
enum FloatExpr {
    Const(f64),
    Bin { op: FloatOp, lhs: Box<FloatExpr>, rhs: Box<FloatExpr> },
    Select { cond: Box<BoolExpr>, then_: Box<FloatExpr>, else_: Box<FloatExpr> },
    FromInt(Box<IntExpr>),
    Load { buf: u32, index: IndexExpr },
    Exp(Box<FloatExpr>),
    Sqrt(Box<FloatExpr>),
    Relu(Box<FloatExpr>),
}

/// Bool-typed compiled expression.
#[derive(Debug, Clone, PartialEq)]
enum BoolExpr {
    CmpI {
        op: CmpOp,
        lhs: Box<IntExpr>,
        rhs: Box<IntExpr>,
    },
    CmpF {
        op: CmpOp,
        lhs: Box<FloatExpr>,
        rhs: Box<FloatExpr>,
    },
    /// Non-short-circuiting, like the interpreter (both sides evaluate, so
    /// divide-by-zero on the right still errors when the left is false).
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    IntNonZero(Box<IntExpr>),
    FloatNonZero(Box<FloatExpr>),
}

/// Flattened buffer access: per-dimension `(index, extent)` programs plus
/// the buffer name for error messages. Bounds are checked per dimension
/// with the interpreter's wording.
#[derive(Debug, Clone, PartialEq)]
struct IndexExpr {
    name: String,
    dims: Vec<(IntExpr, IntExpr)>,
}

#[derive(Debug, Clone)]
enum ValueExpr {
    I(IntExpr),
    F(FloatExpr),
    B(BoolExpr),
}

#[derive(Debug, Clone)]
struct CompiledTile {
    buf: u32,
    name: String,
    offset: IntExpr,
    row_stride: IntExpr,
}

/// Compiled statement tree: the input of [`bytecode::lower`].
#[derive(Debug)]
enum CStmt {
    For {
        slot: u32,
        extent: IntExpr,
        body: Box<CStmt>,
    },
    /// Outermost `blockIdx.*` loop whose body passed the parallel-safety
    /// analysis: iterations dispatch across OS threads.
    ParFor {
        slot: u32,
        extent: IntExpr,
        body: Box<CStmt>,
    },
    Block(CBlock),
    StoreF {
        buf: u32,
        index: IndexExpr,
        value: FloatExpr,
    },
    StoreI {
        buf: u32,
        index: IndexExpr,
        value: IntExpr,
    },
    Seq(Vec<CStmt>),
    If {
        cond: BoolExpr,
        then_: Box<CStmt>,
        else_: Option<Box<CStmt>>,
    },
    Let {
        slot: u32,
        value: IntExpr,
        body: Box<CStmt>,
    },
    Alloc {
        buf: u32,
        is_float: bool,
        len_dims: Vec<IntExpr>,
        body: Box<CStmt>,
    },
    EvalV(ValueExpr),
    Mma(Box<MmaOp>),
    /// Statement that is ill-typed but only errors if actually executed
    /// (matching the interpreter's lazy runtime errors).
    Fail(String),
}

/// Boxed payload of [`CStmt::Mma`] (keeps the statement enum small).
#[derive(Debug, Clone)]
struct MmaOp {
    c: CompiledTile,
    a: CompiledTile,
    b: CompiledTile,
    m: usize,
    n: usize,
    k: usize,
}

#[derive(Debug)]
struct CBlock {
    /// `(slot, binding, is_reduce)` in declaration order; bindings are
    /// evaluated sequentially so later ones may reference earlier slots.
    iters: Vec<(u32, IntExpr, bool)>,
    all_spatial: bool,
    init: Option<Box<CStmt>>,
    body: Box<CStmt>,
}

// ---------------------------------------------------------------------------
// Runtime frame
// ---------------------------------------------------------------------------

/// Raw view of one bound buffer. Pointers stay valid for the duration of a
/// `run` call: function-level views point into the caller's `TensorData`
/// map (not structurally mutated during execution) and local views point
/// into the frame's allocation arena.
///
/// All element accesses go through relaxed atomics (free on x86/ARM for
/// aligned 32-bit values): even if IR violates the blockIdx spatial
/// contract and two ParFor iterations touch the same element, the result
/// is a well-defined value race, never undefined behavior.
#[derive(Debug, Clone, Copy)]
enum RawBuf {
    F32 {
        ptr: *mut f32,
        len: usize,
    },
    I32 {
        ptr: *mut i32,
        len: usize,
    },
    /// Column-segmented f32 view: `width` logical columns, each described
    /// by a [`ColSeg`] table entry (segment base pointer + row stride).
    /// Flat index `i` resolves to column `i % width` of row `i / width`.
    SegCols {
        table: *const ColSeg,
        width: usize,
        rows: usize,
        writable: bool,
    },
    /// Row-segmented f32 view: `n_segs` equal-length contiguous segments.
    /// Flat index `i` resolves to offset `i % seg_len` of segment
    /// `i / seg_len`.
    SegRows {
        segs: *const RowSeg,
        n_segs: usize,
        seg_len: usize,
        writable: bool,
    },
    Absent,
}

impl RawBuf {
    fn of(data: &mut TensorData) -> RawBuf {
        match data {
            TensorData::F32(v) => RawBuf::F32 { ptr: v.as_mut_ptr(), len: v.len() },
            TensorData::I32(v) => RawBuf::I32 { ptr: v.as_mut_ptr(), len: v.len() },
        }
    }
}

/// One logical column of a column-segmented binding: the column's address
/// at row 0, the owning segment's row stride, and how many columns of that
/// segment remain from this one (contiguous-run headroom for the fused
/// lane kernels).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColSeg {
    pub(crate) ptr: *mut f32,
    pub(crate) stride: u32,
    pub(crate) rem: u32,
}

/// One segment of a row-segmented binding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowSeg {
    pub(crate) ptr: *mut f32,
}

/// SAFETY: `idx < rows * width` has been checked and the table is valid
/// for the run.
#[inline]
unsafe fn seg_cols_ptr(table: *const ColSeg, width: usize, idx: usize) -> *mut f32 {
    let e = &*table.add(idx % width);
    e.ptr.add((idx / width) * e.stride as usize)
}

/// SAFETY: `idx < n_segs * seg_len` has been checked and the segment
/// table is valid for the run.
#[inline]
unsafe fn seg_rows_ptr(segs: *const RowSeg, seg_len: usize, idx: usize) -> *mut f32 {
    (*segs.add(idx / seg_len)).ptr.add(idx % seg_len)
}

fn read_only(name: &str) -> ExecError {
    ExecError::new(format!("buffer `{name}` is bound to a read-only view"))
}

/// SAFETY contract for the helpers below: `idx` has been bounds-checked
/// against the view's `len`, and the view is valid for the whole run.
#[inline]
unsafe fn elem_load_f32(ptr: *mut f32, idx: usize) -> f32 {
    f32::from_bits((*ptr.add(idx).cast::<AtomicU32>()).load(Ordering::Relaxed))
}

#[inline]
unsafe fn elem_store_f32(ptr: *mut f32, idx: usize, v: f32) {
    (*ptr.add(idx).cast::<AtomicU32>()).store(v.to_bits(), Ordering::Relaxed);
}

#[inline]
unsafe fn elem_load_i32(ptr: *mut i32, idx: usize) -> i32 {
    (*ptr.add(idx).cast::<AtomicI32>()).load(Ordering::Relaxed)
}

#[inline]
unsafe fn elem_store_i32(ptr: *mut i32, idx: usize, v: i32) {
    (*ptr.add(idx).cast::<AtomicI32>()).store(v, Ordering::Relaxed);
}

struct Frame {
    scalars: Vec<i64>,
    bufs: Vec<RawBuf>,
    /// Arena owning `Allocate`d staging buffers; `RawBuf` views point at
    /// the arena entries' heap storage, which is stable across pushes.
    locals: Vec<TensorData>,
    /// Size-classed pool serving `Allocate` scratch; `None` in `ParFor`
    /// sub-frames (they fall back to plain heap allocation).
    pool: Option<Arc<BufferPool>>,
}

impl Frame {
    #[inline]
    fn load_f(&self, buf: u32, idx: usize, name: &str) -> Result<f64, ExecError> {
        match self.bufs[buf as usize] {
            RawBuf::F32 { ptr, len } => {
                if idx >= len {
                    return Err(oob(name, idx, len));
                }
                // SAFETY: idx < len and the view is valid for the run.
                Ok(f64::from(unsafe { elem_load_f32(ptr, idx) }))
            }
            RawBuf::SegCols { table, width, rows, .. } => {
                let len = rows * width;
                if idx >= len {
                    return Err(oob(name, idx, len));
                }
                // SAFETY: idx < rows * width and the view is valid for the run.
                Ok(f64::from(unsafe { elem_load_f32(seg_cols_ptr(table, width, idx), 0) }))
            }
            RawBuf::SegRows { segs, n_segs, seg_len, .. } => {
                let len = n_segs * seg_len;
                if idx >= len {
                    return Err(oob(name, idx, len));
                }
                // SAFETY: idx < n_segs * seg_len and the view is valid for the run.
                Ok(f64::from(unsafe { elem_load_f32(seg_rows_ptr(segs, seg_len, idx), 0) }))
            }
            RawBuf::I32 { .. } => {
                Err(ExecError::new(format!("buffer `{name}` holds i32 data, float load expected")))
            }
            RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{name}`"))),
        }
    }

    #[inline]
    fn load_i(&self, buf: u32, idx: usize, name: &str) -> Result<i64, ExecError> {
        match self.bufs[buf as usize] {
            RawBuf::I32 { ptr, len } => {
                if idx >= len {
                    return Err(oob(name, idx, len));
                }
                // SAFETY: idx < len and the view is valid for the run.
                Ok(i64::from(unsafe { elem_load_i32(ptr, idx) }))
            }
            RawBuf::F32 { .. } | RawBuf::SegCols { .. } | RawBuf::SegRows { .. } => {
                Err(ExecError::new(format!("buffer `{name}` holds f32 data, int load expected")))
            }
            RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{name}`"))),
        }
    }
}

impl IndexExpr {
    /// Interpreter-identical flattening: per-dimension bound check, then
    /// `flat = flat * extent + index`.
    fn eval(&self, fr: &Frame) -> Result<usize, ExecError> {
        self.eval_with_last(fr).map(|(flat, _, _)| flat as usize)
    }

    /// Like [`IndexExpr::eval`], but also returns the innermost
    /// dimension's index and extent (the fused lane kernels stride the
    /// innermost dimension and need its headroom to bounds-check every
    /// lane up front).
    fn eval_with_last(&self, fr: &Frame) -> Result<(i64, i64, i64), ExecError> {
        let mut flat: i64 = 0;
        let mut last = (0i64, 1i64);
        for (idx, dim) in &self.dims {
            let d = dim.eval(fr)?;
            let i = idx.eval(fr)?;
            if i < 0 || i >= d {
                return Err(ExecError::new(format!(
                    "index {i} out of bounds for dim of extent {d} in buffer `{}`",
                    self.name
                )));
            }
            flat = flat * d + i;
            last = (i, d);
        }
        Ok((flat, last.0, last.1))
    }
}

impl IntExpr {
    fn eval(&self, fr: &Frame) -> Result<i64, ExecError> {
        match self {
            IntExpr::Const(v) => Ok(*v),
            IntExpr::Slot(s) => Ok(fr.scalars[*s as usize]),
            IntExpr::Bin { op, lhs, rhs } => {
                let a = lhs.eval(fr)?;
                let b = rhs.eval(fr)?;
                match op {
                    IntOp::Add => Ok(a + b),
                    IntOp::Sub => Ok(a - b),
                    IntOp::Mul => Ok(a * b),
                    IntOp::Div => {
                        if b == 0 {
                            return Err(ExecError::new("integer division by zero"));
                        }
                        Ok(a.div_euclid(b))
                    }
                    IntOp::Rem => {
                        if b == 0 {
                            return Err(ExecError::new("integer remainder by zero"));
                        }
                        Ok(a.rem_euclid(b))
                    }
                    IntOp::Min => Ok(a.min(b)),
                    IntOp::Max => Ok(a.max(b)),
                }
            }
            IntExpr::Select { cond, then_, else_ } => {
                if cond.eval(fr)? {
                    then_.eval(fr)
                } else {
                    else_.eval(fr)
                }
            }
            IntExpr::CastViaF64(v) => Ok(v.eval(fr)? as i64),
            IntExpr::BoolToInt(b) => Ok(i64::from(b.eval(fr)?)),
            IntExpr::Load { buf, index } => {
                let flat = index.eval(fr)?;
                fr.load_i(*buf, flat, &index.name)
            }
            IntExpr::BinarySearch { buf, name, lo, hi, x } => {
                let lo = lo.eval(fr)? as usize;
                let hi = hi.eval(fr)? as usize;
                let x = x.eval(fr)? as i32;
                match fr.bufs[*buf as usize] {
                    RawBuf::I32 { ptr, len } => {
                        if lo > hi || hi > len {
                            return Err(ExecError::new(format!(
                                "binary_search range {lo}..{hi} out of bounds (len {len}) in buffer `{name}`"
                            )));
                        }
                        // partition_point over atomic element reads (no
                        // slice over potentially shared memory).
                        let (mut l, mut h) = (lo, hi);
                        while l < h {
                            let mid = l + (h - l) / 2;
                            // SAFETY: lo <= mid < hi <= len.
                            if unsafe { elem_load_i32(ptr, mid) } < x {
                                l = mid + 1;
                            } else {
                                h = mid;
                            }
                        }
                        Ok((l - lo) as i64)
                    }
                    RawBuf::F32 { .. } | RawBuf::SegCols { .. } | RawBuf::SegRows { .. } => {
                        Err(ExecError::new(format!("binary_search over non-i32 buffer `{name}`")))
                    }
                    RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{name}`"))),
                }
            }
        }
    }
}

impl FloatExpr {
    fn eval(&self, fr: &Frame) -> Result<f64, ExecError> {
        match self {
            FloatExpr::Const(v) => Ok(*v),
            FloatExpr::Bin { op, lhs, rhs } => {
                let a = lhs.eval(fr)?;
                let b = rhs.eval(fr)?;
                Ok(match op {
                    FloatOp::Add => a + b,
                    FloatOp::Sub => a - b,
                    FloatOp::Mul => a * b,
                    FloatOp::Div => a / b,
                    FloatOp::Rem => a % b,
                    FloatOp::Min => a.min(b),
                    FloatOp::Max => a.max(b),
                })
            }
            FloatExpr::Select { cond, then_, else_ } => {
                if cond.eval(fr)? {
                    then_.eval(fr)
                } else {
                    else_.eval(fr)
                }
            }
            FloatExpr::FromInt(v) => Ok(v.eval(fr)? as f64),
            FloatExpr::Load { buf, index } => {
                let flat = index.eval(fr)?;
                fr.load_f(*buf, flat, &index.name)
            }
            FloatExpr::Exp(v) => Ok(v.eval(fr)?.exp()),
            FloatExpr::Sqrt(v) => Ok(v.eval(fr)?.sqrt()),
            FloatExpr::Relu(v) => Ok(v.eval(fr)?.max(0.0)),
        }
    }
}

impl BoolExpr {
    fn eval(&self, fr: &Frame) -> Result<bool, ExecError> {
        match self {
            BoolExpr::CmpI { op, lhs, rhs } => {
                let a = lhs.eval(fr)?;
                let b = rhs.eval(fr)?;
                Ok(match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                })
            }
            BoolExpr::CmpF { op, lhs, rhs } => {
                let a = lhs.eval(fr)?;
                let b = rhs.eval(fr)?;
                Ok(match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                })
            }
            BoolExpr::And(l, r) => {
                let a = l.eval(fr)?;
                let b = r.eval(fr)?;
                Ok(a && b)
            }
            BoolExpr::Or(l, r) => {
                let a = l.eval(fr)?;
                let b = r.eval(fr)?;
                Ok(a || b)
            }
            BoolExpr::IntNonZero(v) => Ok(v.eval(fr)? != 0),
            BoolExpr::FloatNonZero(v) => Ok(v.eval(fr)? != 0.0),
        }
    }
}

impl ValueExpr {
    fn eval_for_effect(&self, fr: &Frame) -> Result<(), ExecError> {
        match self {
            ValueExpr::I(e) => e.eval(fr).map(|_| ()),
            ValueExpr::F(e) => e.eval(fr).map(|_| ()),
            ValueExpr::B(e) => e.eval(fr).map(|_| ()),
        }
    }
}

/// Wrapper sending per-thread frames into scoped threads. The raw buffer
/// views alias the same storage across threads; all element accesses are
/// relaxed atomics, so even contract-violating IR cannot cause undefined
/// behavior — only a deterministic-per-schedule value race. Deterministic,
/// interpreter-identical results are guaranteed for loops that honour the
/// blockIdx spatial contract (checked conservatively by `parallel_safe`).
struct SendFrame(Frame);
// SAFETY: the raw pointers target allocations that outlive the scoped
// threads, and every dereference goes through relaxed atomics (see
// `elem_load_*`/`elem_store_*`), so cross-thread access is well-defined.
unsafe impl Send for SendFrame {}

fn num_threads() -> usize {
    if let Ok(v) = std::env::var("SPARSETIR_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Acquire one kernel-local scratch buffer, from the frame's pool when
/// present (zeroed either way).
#[inline]
fn alloc_local(fr: &Frame, is_float: bool, len: usize) -> TensorData {
    match (&fr.pool, is_float) {
        (Some(p), true) => TensorData::F32(p.acquire_f32(len)),
        (Some(p), false) => TensorData::I32(p.acquire_i32(len)),
        (None, true) => TensorData::F32(vec![0.0; len]),
        (None, false) => TensorData::I32(vec![0; len]),
    }
}

/// Pop the innermost local scratch buffer, returning its storage to the
/// frame's pool when present.
#[inline]
fn free_local(fr: &mut Frame) {
    let Some(data) = fr.locals.pop() else { return };
    if let Some(p) = &fr.pool {
        match data {
            TensorData::F32(v) => p.release_f32(v),
            TensorData::I32(v) => p.release_i32(v),
        }
    }
}

/// `BufferStore` into a float buffer: value first, then index, then the
/// dtype-dispatched store — the interpreter's evaluation order and error
/// wording, exactly.
#[inline]
fn exec_store_f(
    fr: &Frame,
    buf: u32,
    index: &IndexExpr,
    value: &FloatExpr,
) -> Result<(), ExecError> {
    let v = value.eval(fr)?;
    let flat = index.eval(fr)?;
    match fr.bufs[buf as usize] {
        RawBuf::F32 { ptr, len } => {
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            // SAFETY: flat < len.
            unsafe { elem_store_f32(ptr, flat, v as f32) };
            Ok(())
        }
        RawBuf::SegCols { table, width, rows, writable } => {
            let len = rows * width;
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            if !writable {
                return Err(read_only(&index.name));
            }
            // SAFETY: flat < rows * width.
            unsafe { elem_store_f32(seg_cols_ptr(table, width, flat), 0, v as f32) };
            Ok(())
        }
        RawBuf::SegRows { segs, n_segs, seg_len, writable } => {
            let len = n_segs * seg_len;
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            if !writable {
                return Err(read_only(&index.name));
            }
            // SAFETY: flat < n_segs * seg_len.
            unsafe { elem_store_f32(seg_rows_ptr(segs, seg_len, flat), 0, v as f32) };
            Ok(())
        }
        RawBuf::I32 { .. } => Err(ExecError::new(format!("expected int, got float {v}"))),
        RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{}`", index.name))),
    }
}

/// `BufferStore` of the reduction-accumulate form `buf[i] = buf[i] + rest`,
/// evaluating the flat index once for both the load and the store. The
/// generic statement's error order is index → load bounds → `rest` →
/// store bounds; reusing the flat index preserves it exactly (the store's
/// bounds check is implied by the load's on the same buffer).
#[inline]
fn exec_accum_f(
    fr: &Frame,
    buf: u32,
    index: &IndexExpr,
    rest: &FloatExpr,
) -> Result<(), ExecError> {
    let flat = index.eval(fr)?;
    match fr.bufs[buf as usize] {
        RawBuf::F32 { ptr, len } => {
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            // SAFETY: flat < len and the view is valid for the run.
            let cur = f64::from(unsafe { elem_load_f32(ptr, flat) });
            let v = cur + rest.eval(fr)?;
            // SAFETY: flat < len, checked above.
            unsafe { elem_store_f32(ptr, flat, v as f32) };
            Ok(())
        }
        RawBuf::SegCols { table, width, rows, writable } => {
            let len = rows * width;
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            // SAFETY: flat < rows * width and the view is valid for the run.
            let p = unsafe { seg_cols_ptr(table, width, flat) };
            let cur = f64::from(unsafe { elem_load_f32(p, 0) });
            let v = cur + rest.eval(fr)?;
            if !writable {
                return Err(read_only(&index.name));
            }
            // SAFETY: same element, checked above.
            unsafe { elem_store_f32(p, 0, v as f32) };
            Ok(())
        }
        RawBuf::SegRows { segs, n_segs, seg_len, writable } => {
            let len = n_segs * seg_len;
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            // SAFETY: flat < n_segs * seg_len and the view is valid for the run.
            let p = unsafe { seg_rows_ptr(segs, seg_len, flat) };
            let cur = f64::from(unsafe { elem_load_f32(p, 0) });
            let v = cur + rest.eval(fr)?;
            if !writable {
                return Err(read_only(&index.name));
            }
            // SAFETY: same element, checked above.
            unsafe { elem_store_f32(p, 0, v as f32) };
            Ok(())
        }
        // The generic form fails inside the load, with the load's wording.
        RawBuf::I32 { .. } => Err(ExecError::new(format!(
            "buffer `{}` holds i32 data, float load expected",
            index.name
        ))),
        RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{}`", index.name))),
    }
}

/// `BufferStore` of an int value; int-into-float follows the interpreter
/// (`as_float() as f32`). Shared by both executors like [`exec_store_f`].
#[inline]
fn exec_store_i(fr: &Frame, buf: u32, index: &IndexExpr, value: &IntExpr) -> Result<(), ExecError> {
    let v = value.eval(fr)?;
    let flat = index.eval(fr)?;
    match fr.bufs[buf as usize] {
        RawBuf::I32 { ptr, len } => {
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            // SAFETY: flat < len.
            unsafe { elem_store_i32(ptr, flat, v as i32) };
            Ok(())
        }
        RawBuf::F32 { ptr, len } => {
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            // SAFETY: flat < len.
            unsafe { elem_store_f32(ptr, flat, v as f64 as f32) };
            Ok(())
        }
        RawBuf::SegCols { table, width, rows, writable } => {
            let len = rows * width;
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            if !writable {
                return Err(read_only(&index.name));
            }
            // SAFETY: flat < rows * width.
            unsafe { elem_store_f32(seg_cols_ptr(table, width, flat), 0, v as f64 as f32) };
            Ok(())
        }
        RawBuf::SegRows { segs, n_segs, seg_len, writable } => {
            let len = n_segs * seg_len;
            if flat >= len {
                return Err(oob(&index.name, flat, len));
            }
            if !writable {
                return Err(read_only(&index.name));
            }
            // SAFETY: flat < n_segs * seg_len.
            unsafe { elem_store_f32(seg_rows_ptr(segs, seg_len, flat), 0, v as f64 as f32) };
            Ok(())
        }
        RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{}`", index.name))),
    }
}

fn tile_base(fr: &Frame, t: &CompiledTile) -> Result<(u32, usize, usize), ExecError> {
    let off = t.offset.eval(fr)?;
    let stride = t.row_stride.eval(fr)?;
    if off < 0 || stride < 0 {
        return Err(ExecError::new("negative tile offset/stride"));
    }
    Ok((t.buf, off as usize, stride as usize))
}

fn exec_mma(
    fr: &mut Frame,
    c: &CompiledTile,
    a: &CompiledTile,
    b: &CompiledTile,
    m: usize,
    n: usize,
    k: usize,
) -> Result<(), ExecError> {
    let (ab, ao, asn) = tile_base(fr, a)?;
    let (bb, bo, bsn) = tile_base(fr, b)?;
    let (cb, co, csn) = tile_base(fr, c)?;
    let read = |fr: &Frame, buf: u32, name: &str, idx: usize| -> Result<f32, ExecError> {
        match fr.bufs[buf as usize] {
            RawBuf::F32 { ptr, len } => {
                if idx >= len {
                    return Err(oob(name, idx, len));
                }
                // SAFETY: idx < len.
                Ok(unsafe { elem_load_f32(ptr, idx) })
            }
            RawBuf::I32 { .. } => Err(ExecError::new("mma_sync operand must be float")),
            RawBuf::SegCols { .. } | RawBuf::SegRows { .. } => {
                Err(ExecError::new("mma_sync on a segmented binding is unsupported"))
            }
            RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{name}`"))),
        }
    };
    let mut acc = vec![0.0f32; m * n];
    for mi in 0..m {
        for ni in 0..n {
            let mut sum = 0.0f32;
            for ki in 0..k {
                let av = read(fr, ab, &a.name, ao + mi * asn + ki)?;
                let bv = read(fr, bb, &b.name, bo + ki * bsn + ni)?;
                sum += av * bv;
            }
            acc[mi * n + ni] = sum;
        }
    }
    match fr.bufs[cb as usize] {
        RawBuf::F32 { ptr, len } => {
            for mi in 0..m {
                for ni in 0..n {
                    let idx = co + mi * csn + ni;
                    if idx >= len {
                        return Err(oob(&c.name, idx, len));
                    }
                    // SAFETY: idx < len. Load-modify-store, not an atomic
                    // RMW: accumulation order within one iteration is
                    // serial, and other iterations touch disjoint tiles
                    // under the spatial contract.
                    unsafe {
                        elem_store_f32(ptr, idx, elem_load_f32(ptr, idx) + acc[mi * n + ni]);
                    }
                }
            }
            Ok(())
        }
        RawBuf::I32 { .. } => Err(ExecError::new("mma_sync target must be float")),
        RawBuf::SegCols { .. } | RawBuf::SegRows { .. } => {
            Err(ExecError::new("mma_sync on a segmented binding is unsupported"))
        }
        RawBuf::Absent => Err(ExecError::new(format!("unbound buffer `{}`", c.name))),
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
    Bool,
}

/// Static result kind of an expression under interpreter semantics:
/// variables are always integers, so every expression's kind is decidable
/// at compile time.
fn kind_of(e: &Expr) -> Kind {
    match e {
        Expr::Int { .. } | Expr::Var(_) => Kind::Int,
        Expr::Float { .. } => Kind::Float,
        Expr::Binary { op, lhs, rhs } => {
            if op.is_predicate() {
                Kind::Bool
            } else if kind_of(lhs) == Kind::Float || kind_of(rhs) == Kind::Float {
                Kind::Float
            } else {
                Kind::Int
            }
        }
        Expr::Select { then, otherwise, .. } => {
            let (a, b) = (kind_of(then), kind_of(otherwise));
            if a == Kind::Float || b == Kind::Float {
                Kind::Float
            } else if a == Kind::Bool && b == Kind::Bool {
                Kind::Bool
            } else {
                Kind::Int
            }
        }
        Expr::Cast { dtype, .. } => {
            if dtype.is_float() {
                Kind::Float
            } else {
                Kind::Int
            }
        }
        Expr::BufferLoad { buffer, .. } => {
            if buffer.dtype.is_float() {
                Kind::Float
            } else {
                Kind::Int
            }
        }
        Expr::Call { intrin, .. } => match intrin {
            Intrinsic::BinarySearch => Kind::Int,
            Intrinsic::Exp | Intrinsic::Sqrt | Intrinsic::Relu => Kind::Float,
        },
    }
}

struct Compiler {
    /// Lexically scoped name → scalar slot map (innermost last).
    var_scopes: Vec<HashMap<Rc<str>, u32>>,
    n_slots: u32,
    /// Lexically scoped buffer name → buffer slot map.
    buf_scopes: Vec<HashMap<Rc<str>, u32>>,
    n_bufs: u32,
    /// Source name of each scalar slot, by slot index (disassembly).
    slot_names: Vec<String>,
    /// Source name of each buffer slot, by slot index (disassembly).
    buf_names: Vec<String>,
}

impl Compiler {
    fn new() -> Self {
        Compiler {
            var_scopes: vec![HashMap::new()],
            n_slots: 0,
            buf_scopes: vec![HashMap::new()],
            n_bufs: 0,
            slot_names: Vec::new(),
            buf_names: Vec::new(),
        }
    }

    fn fresh_slot(&mut self, name: &Rc<str>) -> u32 {
        let slot = self.n_slots;
        self.n_slots += 1;
        self.slot_names.push(name.to_string());
        self.var_scopes.last_mut().expect("scope").insert(name.clone(), slot);
        slot
    }

    fn lookup_var(&self, name: &str) -> Option<u32> {
        self.var_scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn fresh_buf(&mut self, name: &Rc<str>) -> u32 {
        let slot = self.n_bufs;
        self.n_bufs += 1;
        self.buf_names.push(name.to_string());
        self.buf_scopes.last_mut().expect("scope").insert(name.clone(), slot);
        slot
    }

    fn lookup_buf(&self, name: &str) -> Result<u32, ExecError> {
        self.buf_scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .copied()
            .ok_or_else(|| ExecError::new(format!("unbound buffer `{name}`")))
    }

    fn compile_int(&self, e: &Expr) -> Result<IntExpr, ExecError> {
        match kind_of(e) {
            Kind::Int => self.compile_int_raw(e),
            Kind::Bool => Ok(IntExpr::BoolToInt(Box::new(self.compile_bool(e)?))),
            Kind::Float => {
                Err(ExecError::new(format!("expected int expression, found float (in `{e:?}`)")))
            }
        }
    }

    fn compile_int_raw(&self, e: &Expr) -> Result<IntExpr, ExecError> {
        Ok(match e {
            Expr::Int { value, .. } => IntExpr::Const(*value),
            Expr::Var(v) => IntExpr::Slot(
                self.lookup_var(&v.name)
                    .ok_or_else(|| ExecError::new(format!("unbound variable `{}`", v.name)))?,
            ),
            Expr::Binary { op, lhs, rhs } => {
                let iop = match op {
                    BinOp::Add => IntOp::Add,
                    BinOp::Sub => IntOp::Sub,
                    BinOp::Mul => IntOp::Mul,
                    BinOp::Div => IntOp::Div,
                    BinOp::Rem => IntOp::Rem,
                    BinOp::Min => IntOp::Min,
                    BinOp::Max => IntOp::Max,
                    _ => return Err(ExecError::new("predicate in integer position")),
                };
                fold_int(iop, self.compile_int(lhs)?, self.compile_int(rhs)?)
            }
            Expr::Select { cond, then, otherwise } => IntExpr::Select {
                cond: Box::new(self.compile_bool(cond)?),
                then_: Box::new(self.compile_int(then)?),
                else_: Box::new(self.compile_int(otherwise)?),
            },
            Expr::Cast { value, .. } => {
                // Integer cast routes through f64, exactly like the
                // interpreter's `as_float() as i64`.
                IntExpr::CastViaF64(Box::new(self.compile_float(value)?))
            }
            Expr::BufferLoad { buffer, indices } => IntExpr::Load {
                buf: self.lookup_buf(&buffer.name)?,
                index: self.compile_index(buffer, indices)?,
            },
            Expr::Call { intrin: Intrinsic::BinarySearch, args } => {
                let [buf, lo, hi, x] = args.as_slice() else {
                    return Err(ExecError::new("binary_search expects 4 args"));
                };
                let Expr::BufferLoad { buffer, .. } = buf else {
                    return Err(ExecError::new("binary_search arg 0 must name a buffer"));
                };
                IntExpr::BinarySearch {
                    buf: self.lookup_buf(&buffer.name)?,
                    name: buffer.name.to_string(),
                    lo: Box::new(self.compile_int(lo)?),
                    hi: Box::new(self.compile_int(hi)?),
                    x: Box::new(self.compile_int(x)?),
                }
            }
            other => {
                return Err(ExecError::new(format!("expression is not integer-typed: `{other:?}`")))
            }
        })
    }

    fn compile_float(&self, e: &Expr) -> Result<FloatExpr, ExecError> {
        match kind_of(e) {
            Kind::Float => self.compile_float_raw(e),
            Kind::Int | Kind::Bool => Ok(FloatExpr::FromInt(Box::new(self.compile_int(e)?))),
        }
    }

    fn compile_float_raw(&self, e: &Expr) -> Result<FloatExpr, ExecError> {
        Ok(match e {
            Expr::Float { value, .. } => FloatExpr::Const(*value),
            Expr::Binary { op, lhs, rhs } => {
                let fop = match op {
                    BinOp::Add => FloatOp::Add,
                    BinOp::Sub => FloatOp::Sub,
                    BinOp::Mul => FloatOp::Mul,
                    BinOp::Div => FloatOp::Div,
                    BinOp::Rem => FloatOp::Rem,
                    BinOp::Min => FloatOp::Min,
                    BinOp::Max => FloatOp::Max,
                    _ => return Err(ExecError::new("predicate in float position")),
                };
                FloatExpr::Bin {
                    op: fop,
                    lhs: Box::new(self.compile_float(lhs)?),
                    rhs: Box::new(self.compile_float(rhs)?),
                }
            }
            Expr::Select { cond, then, otherwise } => FloatExpr::Select {
                cond: Box::new(self.compile_bool(cond)?),
                then_: Box::new(self.compile_float(then)?),
                else_: Box::new(self.compile_float(otherwise)?),
            },
            Expr::Cast { value, .. } => FloatExpr::FromInt(Box::new(IntExpr::CastViaF64(
                Box::new(self.compile_float(value)?),
            )))
            .simplify_cast(),
            Expr::BufferLoad { buffer, indices } => FloatExpr::Load {
                buf: self.lookup_buf(&buffer.name)?,
                index: self.compile_index(buffer, indices)?,
            },
            Expr::Call { intrin, args } => {
                if args.is_empty() {
                    return Err(ExecError::new(format!(
                        "intrinsic `{}` expects an argument",
                        intrin.name()
                    )));
                }
                let arg = Box::new(self.compile_float(&args[0])?);
                match intrin {
                    Intrinsic::Exp => FloatExpr::Exp(arg),
                    Intrinsic::Sqrt => FloatExpr::Sqrt(arg),
                    Intrinsic::Relu => FloatExpr::Relu(arg),
                    Intrinsic::BinarySearch => {
                        return Err(ExecError::new("binary_search is integer-typed"))
                    }
                }
            }
            other => {
                return Err(ExecError::new(format!("expression is not float-typed: `{other:?}`")))
            }
        })
    }

    fn compile_bool(&self, e: &Expr) -> Result<BoolExpr, ExecError> {
        match e {
            Expr::Binary { op, lhs, rhs } if op.is_predicate() => match op {
                BinOp::And => Ok(BoolExpr::And(
                    Box::new(self.compile_bool(lhs)?),
                    Box::new(self.compile_bool(rhs)?),
                )),
                BinOp::Or => Ok(BoolExpr::Or(
                    Box::new(self.compile_bool(lhs)?),
                    Box::new(self.compile_bool(rhs)?),
                )),
                _ => {
                    let cmp = match op {
                        BinOp::Eq => CmpOp::Eq,
                        BinOp::Ne => CmpOp::Ne,
                        BinOp::Lt => CmpOp::Lt,
                        BinOp::Le => CmpOp::Le,
                        BinOp::Gt => CmpOp::Gt,
                        BinOp::Ge => CmpOp::Ge,
                        _ => unreachable!("non-comparison predicate handled above"),
                    };
                    // Float comparison if either side is float, matching
                    // the interpreter's dynamic promotion.
                    if kind_of(lhs) == Kind::Float || kind_of(rhs) == Kind::Float {
                        Ok(BoolExpr::CmpF {
                            op: cmp,
                            lhs: Box::new(self.compile_float(lhs)?),
                            rhs: Box::new(self.compile_float(rhs)?),
                        })
                    } else {
                        Ok(BoolExpr::CmpI {
                            op: cmp,
                            lhs: Box::new(self.compile_int(lhs)?),
                            rhs: Box::new(self.compile_int(rhs)?),
                        })
                    }
                }
            },
            _ => match kind_of(e) {
                Kind::Bool => {
                    Err(ExecError::new(format!("unsupported boolean expression: `{e:?}`")))
                }
                Kind::Int => Ok(BoolExpr::IntNonZero(Box::new(self.compile_int(e)?))),
                Kind::Float => Ok(BoolExpr::FloatNonZero(Box::new(self.compile_float(e)?))),
            },
        }
    }

    fn compile_value(&self, e: &Expr) -> Result<ValueExpr, ExecError> {
        Ok(match kind_of(e) {
            Kind::Int => ValueExpr::I(self.compile_int(e)?),
            Kind::Float => ValueExpr::F(self.compile_float(e)?),
            Kind::Bool => ValueExpr::B(self.compile_bool(e)?),
        })
    }

    fn compile_index(&self, buffer: &Buffer, indices: &[Expr]) -> Result<IndexExpr, ExecError> {
        if indices.len() != buffer.shape.len() {
            return Err(ExecError::new(format!(
                "buffer `{}` has {} dims but {} indices given",
                buffer.name,
                buffer.shape.len(),
                indices.len()
            )));
        }
        let mut dims = Vec::with_capacity(indices.len());
        for (idx, dim) in indices.iter().zip(&buffer.shape) {
            dims.push((self.compile_int(idx)?, self.compile_int(dim)?));
        }
        Ok(IndexExpr { name: buffer.name.to_string(), dims })
    }

    fn compile_tile(&self, t: &TensorTile) -> Result<CompiledTile, ExecError> {
        Ok(CompiledTile {
            buf: self.lookup_buf(&t.buffer.name)?,
            name: t.buffer.name.to_string(),
            offset: self.compile_int(&t.offset)?,
            row_stride: self.compile_int(&t.row_stride)?,
        })
    }

    /// `outermost` is true only until the first loop/block boundary is
    /// crossed: only outermost blockIdx loops parallelize.
    fn compile_stmt(&mut self, s: &Stmt, outermost: bool) -> Result<CStmt, ExecError> {
        Ok(match s {
            Stmt::For { var, extent, kind, body } => {
                let extent = self.compile_int(extent)?;
                self.var_scopes.push(HashMap::new());
                let slot = self.fresh_slot(&var.name);
                let cbody = self.compile_stmt(body, false)?;
                self.var_scopes.pop();
                let parallel = outermost
                    && matches!(kind, ForKind::ThreadBinding(axis) if axis.is_block())
                    && parallel_safe(body, var);
                if parallel {
                    CStmt::ParFor { slot, extent, body: Box::new(cbody) }
                } else {
                    CStmt::For { slot, extent, body: Box::new(cbody) }
                }
            }
            Stmt::Block(b) => {
                // Bindings are evaluated sequentially in the outer scope,
                // but each iter var enters scope as soon as it is bound
                // (later bindings may reference earlier iter vars).
                self.var_scopes.push(HashMap::new());
                let mut iters = Vec::with_capacity(b.iter_vars.len());
                for iv in &b.iter_vars {
                    let binding = self.compile_int(&iv.binding)?;
                    let slot = self.fresh_slot(&iv.var.name);
                    iters.push((slot, binding, iv.kind == IterKind::Reduce));
                }
                let all_spatial = b.iter_vars.iter().all(|iv| iv.kind == IterKind::Spatial);
                let init = match &b.init {
                    Some(init) => Some(Box::new(self.compile_stmt(init, false)?)),
                    None => None,
                };
                let body = Box::new(self.compile_stmt(&b.body, false)?);
                self.var_scopes.pop();
                CStmt::Block(CBlock { iters, all_spatial, init, body })
            }
            Stmt::BufferStore { buffer, indices, value } => {
                let buf = self.lookup_buf(&buffer.name)?;
                let index = self.compile_index(buffer, indices)?;
                if buffer.dtype.is_float() {
                    CStmt::StoreF { buf, index, value: self.compile_float(value)? }
                } else {
                    match kind_of(value) {
                        // The interpreter raises "expected int, got float"
                        // only when the store executes; match that.
                        Kind::Float => CStmt::Fail(
                            "expected int, got float (float value stored to int buffer)".into(),
                        ),
                        _ => CStmt::StoreI { buf, index, value: self.compile_int(value)? },
                    }
                }
            }
            Stmt::Seq(stmts) => {
                let mut out = Vec::with_capacity(stmts.len());
                for st in stmts {
                    out.push(self.compile_stmt(st, outermost)?);
                }
                CStmt::Seq(out)
            }
            Stmt::IfThenElse { cond, then_branch, else_branch } => CStmt::If {
                cond: self.compile_bool(cond)?,
                then_: Box::new(self.compile_stmt(then_branch, false)?),
                else_: match else_branch {
                    Some(e) => Some(Box::new(self.compile_stmt(e, false)?)),
                    None => None,
                },
            },
            Stmt::Let { var, value, body } => {
                if kind_of(value) == Kind::Float {
                    // The interpreter raises "expected int, got float"
                    // only when the Let executes; match that laziness.
                    CStmt::Fail("expected int, got float (float value bound by let)".into())
                } else {
                    let value = self.compile_int(value)?;
                    self.var_scopes.push(HashMap::new());
                    let slot = self.fresh_slot(&var.name);
                    let body = Box::new(self.compile_stmt(body, false)?);
                    self.var_scopes.pop();
                    CStmt::Let { slot, value, body }
                }
            }
            Stmt::Allocate { buffer, body } => {
                let len_dims = buffer
                    .shape
                    .iter()
                    .map(|d| self.compile_int(d))
                    .collect::<Result<Vec<_>, _>>()?;
                self.buf_scopes.push(HashMap::new());
                let buf = self.fresh_buf(&buffer.name);
                let body = Box::new(self.compile_stmt(body, false)?);
                self.buf_scopes.pop();
                CStmt::Alloc { buf, is_float: buffer.dtype.is_float(), len_dims, body }
            }
            Stmt::Evaluate(e) => CStmt::EvalV(self.compile_value(e)?),
            Stmt::MmaSync { c, a, b, m, n, k } => CStmt::Mma(Box::new(MmaOp {
                c: self.compile_tile(c)?,
                a: self.compile_tile(a)?,
                b: self.compile_tile(b)?,
                m: *m,
                n: *n,
                k: *k,
            })),
        })
    }
}

impl FloatExpr {
    /// `FromInt(CastViaF64(x))` where x is already float is produced by the
    /// float-cast path; collapse the no-op pair `float -> i64 -> f64` is
    /// NOT valid (truncation), but `Cast{F32}(float_expr)` should stay the
    /// identity the interpreter gives it (`Value::Float(v.as_float())`).
    fn simplify_cast(self) -> FloatExpr {
        match self {
            FloatExpr::FromInt(inner) => match *inner {
                IntExpr::CastViaF64(f) => *f,
                other => FloatExpr::FromInt(Box::new(other)),
            },
            other => other,
        }
    }
}

/// Constant-fold integer binops at compile time (division folding is left
/// to runtime so divide-by-zero errors are preserved).
fn fold_int(op: IntOp, lhs: IntExpr, rhs: IntExpr) -> IntExpr {
    if let (IntExpr::Const(a), IntExpr::Const(b)) = (&lhs, &rhs) {
        let (a, b) = (*a, *b);
        let v = match op {
            IntOp::Add => Some(a + b),
            IntOp::Sub => Some(a - b),
            IntOp::Mul => Some(a * b),
            IntOp::Div if b != 0 => Some(a.div_euclid(b)),
            IntOp::Rem if b != 0 => Some(a.rem_euclid(b)),
            IntOp::Min => Some(a.min(b)),
            IntOp::Max => Some(a.max(b)),
            _ => None,
        };
        if let Some(v) = v {
            return IntExpr::Const(v);
        }
    }
    IntExpr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

// ---------------------------------------------------------------------------
// Parallel-safety analysis
// ---------------------------------------------------------------------------

fn expr_mentions(e: &Expr, tainted: &HashSet<Rc<str>>) -> bool {
    let mut found = false;
    let mut stack = vec![e];
    while let Some(e) = stack.pop() {
        match e {
            Expr::Var(v) => {
                if tainted.contains(&v.name) {
                    found = true;
                    break;
                }
            }
            Expr::Int { .. } | Expr::Float { .. } => {}
            Expr::Binary { lhs, rhs, .. } => {
                stack.push(lhs);
                stack.push(rhs);
            }
            Expr::Select { cond, then, otherwise } => {
                stack.push(cond);
                stack.push(then);
                stack.push(otherwise);
            }
            Expr::Cast { value, .. } => stack.push(value),
            Expr::BufferLoad { indices, .. } => stack.extend(indices.iter()),
            Expr::Call { args, .. } => stack.extend(args.iter()),
        }
    }
    found
}

/// Heuristic filter deciding whether a `blockIdx`-bound loop may dispatch
/// across threads: every write inside `body` must be indexed by the
/// candidate parallel loop variable `var` (directly or through `let` /
/// block-iter bindings derived from it), and no reduction may iterate
/// over it. This filters obviously-colliding loops on top of the IR-level
/// contract that `blockIdx`-bound loops are spatial; it does **not** prove
/// injectivity (e.g. `C[i % 2]` passes), so IR that lies about the spatial
/// contract can still race — yielding nondeterministic *values* but never
/// undefined behavior, since all element accesses are relaxed atomics.
/// Failing the filter falls back to serial execution.
fn parallel_safe(body: &Stmt, var: &Var) -> bool {
    let mut tainted: HashSet<Rc<str>> = HashSet::new();
    tainted.insert(var.name.clone());
    let mut locals: HashSet<Rc<str>> = HashSet::new();
    check_parallel(body, &mut tainted, &mut locals)
}

fn check_parallel(s: &Stmt, tainted: &mut HashSet<Rc<str>>, locals: &mut HashSet<Rc<str>>) -> bool {
    match s {
        Stmt::For { var, body, .. } => {
            // The loop var shadows any tainted binding of the same name.
            let was = tainted.remove(&var.name);
            let ok = check_parallel(body, tainted, locals);
            if was {
                tainted.insert(var.name.clone());
            }
            ok
        }
        Stmt::Block(b) => {
            let mut added = Vec::new();
            let mut shadowed = Vec::new();
            for iv in &b.iter_vars {
                let derives = expr_mentions(&iv.binding, tainted);
                if derives && iv.kind == IterKind::Reduce {
                    // A reduction over the parallel dimension would merge
                    // writes across iterations: not parallel-safe.
                    for name in added {
                        tainted.remove::<Rc<str>>(&name);
                    }
                    for name in shadowed {
                        tainted.insert(name);
                    }
                    return false;
                }
                if derives {
                    if tainted.insert(iv.var.name.clone()) {
                        added.push(iv.var.name.clone());
                    }
                } else if tainted.remove(&iv.var.name) {
                    shadowed.push(iv.var.name.clone());
                }
            }
            let ok = b.init.as_ref().is_none_or(|init| check_parallel(init, tainted, locals))
                && check_parallel(&b.body, tainted, locals);
            for name in added {
                tainted.remove::<Rc<str>>(&name);
            }
            for name in shadowed {
                tainted.insert(name);
            }
            ok
        }
        Stmt::BufferStore { buffer, indices, .. } => {
            locals.contains(&buffer.name) || indices.iter().any(|i| expr_mentions(i, tainted))
        }
        Stmt::Seq(stmts) => stmts.iter().all(|st| check_parallel(st, tainted, locals)),
        Stmt::IfThenElse { then_branch, else_branch, .. } => {
            check_parallel(then_branch, tainted, locals)
                && else_branch.as_ref().is_none_or(|e| check_parallel(e, tainted, locals))
        }
        Stmt::Let { var, value, body } => {
            let derives = expr_mentions(value, tainted);
            let (added, shadowed) = if derives {
                (tainted.insert(var.name.clone()), false)
            } else {
                (false, tainted.remove(&var.name))
            };
            let ok = check_parallel(body, tainted, locals);
            if added {
                tainted.remove(&var.name);
            }
            if shadowed {
                tainted.insert(var.name.clone());
            }
            ok
        }
        Stmt::Allocate { buffer, body } => {
            let added = locals.insert(buffer.name.clone());
            let ok = check_parallel(body, tainted, locals);
            if added {
                locals.remove(&buffer.name);
            }
            ok
        }
        Stmt::Evaluate(_) => true,
        Stmt::MmaSync { c, .. } => {
            locals.contains(&c.buffer.name) || expr_mentions(&c.offset, tainted)
        }
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A compiled, reusable kernel: run it many times against different tensor
/// bindings without re-walking the IR.
pub struct CompiledKernel {
    name: String,
    /// `(param name, scalar slot)` bindings filled from the caller's map.
    params: Vec<(String, u32)>,
    /// `(buffer name, is_float, buffer slot)` for function-level buffers.
    buffers: Vec<(String, bool, u32)>,
    n_slots: u32,
    n_bufs: u32,
    body: bytecode::Code,
    fuse: bool,
    /// Source name of every scalar slot, by index (disassembly).
    slot_names: Vec<String>,
    /// Source name of every buffer slot, by index (disassembly).
    buf_names: Vec<String>,
    /// Scratch scalar frames reused across invocations.
    frame_pool: Mutex<Vec<Vec<i64>>>,
    /// Compile-time memory requirements, one entry per buffer slot.
    plan: MemoryPlan,
    /// Size-classed pool serving `Allocate` scratch at run time. Kernels
    /// compiled through a [`Runtime`] share its pool; standalone
    /// compilations get a private one.
    pool: Arc<BufferPool>,
}

impl fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledKernel")
            .field("name", &self.name)
            .field("slots", &self.n_slots)
            .field("buffers", &self.n_bufs)
            .finish()
    }
}

impl CompiledKernel {
    /// Compile `func` into a slot-indexed program with fusion on.
    ///
    /// # Errors
    /// Returns [`ExecError`] on references to unbound names or ill-typed
    /// constructs that the interpreter would also reject.
    pub fn compile(func: &PrimFunc) -> Result<CompiledKernel, ExecError> {
        Self::compile_with(func, true)
    }

    /// Compile `func`, explicitly enabling (`true`) or disabling
    /// (`false`) the dense-lane microkernel fusion pass. With fusion off
    /// the kernel runs entirely on generic dispatch — the baseline the
    /// `executor_vectorization` bench compares against. With fusion on,
    /// lowering emits a superinstruction in place of each matching loop
    /// (the generic loop lowers right behind it as the bit-exact
    /// fallback).
    ///
    /// # Errors
    /// Returns [`ExecError`] on references to unbound names or ill-typed
    /// constructs that the interpreter would also reject.
    pub fn compile_with(func: &PrimFunc, fuse: bool) -> Result<CompiledKernel, ExecError> {
        let mut c = Compiler::new();
        let mut params = Vec::with_capacity(func.params.len());
        for p in &func.params {
            let slot = c.fresh_slot(&p.name);
            params.push((p.name.to_string(), slot));
        }
        let mut buffers = Vec::with_capacity(func.buffers.len());
        for b in &func.buffers {
            let slot = c.fresh_buf(&b.name);
            buffers.push((b.name.to_string(), b.dtype.is_float(), slot));
        }
        let tree = c.compile_stmt(&func.body, true)?;
        let plan = MemoryPlan::of(func, &buffers, &c.buf_names, &tree);
        let body = bytecode::lower(&tree, fuse);
        Ok(CompiledKernel {
            name: func.name.to_string(),
            params,
            buffers,
            n_slots: c.n_slots,
            n_bufs: c.n_bufs,
            body,
            fuse,
            slot_names: c.slot_names,
            buf_names: c.buf_names,
            frame_pool: Mutex::new(Vec::new()),
            plan,
            pool: Arc::new(BufferPool::new()),
        })
    }

    /// Kernel name (the `PrimFunc` name it was compiled from).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar slots in the compiled frame (compile-time resolved
    /// variables; diagnostic).
    #[must_use]
    pub fn scalar_slots(&self) -> usize {
        self.n_slots as usize
    }

    /// Number of dense-lane microkernel instructions (`FillLanes`,
    /// `AxpyLanes`, `DotLanes`, `GatherScaleAccumulate`) the fusion pass
    /// produced. Zero when compiled with fusion disabled or when no
    /// innermost loop matched a contiguous dense-lane pattern.
    #[must_use]
    pub fn fused_ops(&self) -> usize {
        self.body.fused_ops()
    }

    /// Names of the fused microkernel instructions, in program order
    /// (diagnostics; e.g. `["FillLanes", "AxpyLanes"]` for the hyb SpMM).
    #[must_use]
    pub fn fused_kinds(&self) -> Vec<&'static str> {
        let mut out = Vec::with_capacity(self.fused_ops());
        self.body.collect_micros(&mut out);
        out
    }

    /// Stable text listing of the kernel's flat bytecode: header, param
    /// and buffer tables, the scalar-slot table, and one line per
    /// instruction (golden-file tests on codegen diff against it).
    #[must_use]
    pub fn disassemble(&self) -> String {
        disasm::render(self, &self.body)
    }

    /// True when the outermost loop dispatches iterations across threads.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.body.is_parallel()
    }

    /// Execute against named scalar parameters and tensor storage, exactly
    /// like [`crate::eval::eval_func`]. Output buffers mutate in place.
    ///
    /// # Errors
    /// Returns [`ExecError`] on missing bindings, divide-by-zero and
    /// out-of-bounds accesses — the same conditions (and messages) as the
    /// reference interpreter.
    pub fn run(
        &self,
        scalars: &HashMap<String, i64>,
        tensors: &mut HashMap<String, TensorData>,
    ) -> Result<(), ExecError> {
        let mut frame_scalars = self.frame_pool.lock().unwrap().pop().unwrap_or_default();
        frame_scalars.resize(self.n_slots as usize, 0);
        for (name, slot) in &self.params {
            let v = scalars
                .get(name)
                .ok_or_else(|| ExecError::new(format!("missing scalar param `{name}`")))?;
            frame_scalars[*slot as usize] = *v;
        }
        let mut bufs = vec![RawBuf::Absent; self.n_bufs as usize];
        for (name, is_float, slot) in &self.buffers {
            let data = tensors.get_mut(name).ok_or_else(|| {
                ExecError::new(format!("missing tensor binding for buffer `{name}`"))
            })?;
            if *is_float != matches!(data, TensorData::F32(_)) {
                return Err(ExecError::new(format!(
                    "buffer `{name}` bound to storage of mismatched dtype"
                )));
            }
            // The RawBuf view outlives this loop iteration's borrow; this
            // is sound because the map is not structurally mutated while
            // the frame is live and buffer names are distinct keys.
            bufs[*slot as usize] = RawBuf::of(data);
        }
        self.exec_frame(frame_scalars, bufs)
    }

    /// Execute like [`CompiledKernel::run`], but with bindings that may be
    /// *segmented views* ([`ColsView`]/[`RowsView`]) over caller-owned
    /// storage instead of whole tensors. This is the zero-copy batch
    /// entry: a widened launch binds each operand slot to the riders'
    /// buffers side by side and writes outputs directly into each rider's
    /// result buffer. Error conditions and wording match `run`; stores to
    /// a read-only view fail with a "read-only view" error.
    ///
    /// # Errors
    /// Returns [`ExecError`] on missing bindings, dtype mismatches and
    /// the interpreter's run-time error conditions.
    pub fn run_views(
        &self,
        scalars: &HashMap<String, i64>,
        views: &mut ViewBindings<'_>,
    ) -> Result<(), ExecError> {
        let mut frame_scalars = self.frame_pool.lock().unwrap().pop().unwrap_or_default();
        frame_scalars.resize(self.n_slots as usize, 0);
        for (name, slot) in &self.params {
            let v = scalars
                .get(name)
                .ok_or_else(|| ExecError::new(format!("missing scalar param `{name}`")))?;
            frame_scalars[*slot as usize] = *v;
        }
        let mut bufs = vec![RawBuf::Absent; self.n_bufs as usize];
        for (name, is_float, slot) in &self.buffers {
            let arg = views.map.get_mut(name.as_str()).ok_or_else(|| {
                ExecError::new(format!("missing tensor binding for buffer `{name}`"))
            })?;
            let ok = match arg {
                BoundArg::Tensor(data) => *is_float == matches!(**data, TensorData::F32(_)),
                // Segmented views are always f32.
                BoundArg::Cols(_) | BoundArg::Rows(_) => *is_float,
            };
            if !ok {
                return Err(ExecError::new(format!(
                    "buffer `{name}` bound to storage of mismatched dtype"
                )));
            }
            // Sound for the same reason as in `run`: the map (and each
            // view's segment table) is not structurally mutated while the
            // frame is live.
            bufs[*slot as usize] = match arg {
                BoundArg::Tensor(data) => RawBuf::of(data),
                BoundArg::Cols(v) => v.raw(),
                BoundArg::Rows(v) => v.raw(),
            };
        }
        self.exec_frame(frame_scalars, bufs)
    }

    fn exec_frame(&self, scalars: Vec<i64>, bufs: Vec<RawBuf>) -> Result<(), ExecError> {
        let mut frame =
            Frame { scalars, bufs, locals: Vec::new(), pool: Some(Arc::clone(&self.pool)) };
        let result = self.body.exec(&mut frame);
        self.frame_pool.lock().unwrap().push(frame.scalars);
        result
    }

    /// The kernel's compile-time memory plan: per-buffer-slot element
    /// counts where statically known, with kernel-local scratch flagged
    /// (those allocations are served from the kernel's buffer pool).
    #[must_use]
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan
    }
}

// ---------------------------------------------------------------------------
// Segmented view bindings
// ---------------------------------------------------------------------------

/// A column-segmented f32 binding: one logical `rows × width` row-major
/// matrix whose columns are backed by several caller-owned row-major
/// buffers side by side (each segment contributing a contiguous block of
/// columns). The flat-index→(segment, offset) resolution is a precomputed
/// per-column table, so the executor's fused lane kernels run per-segment
/// contiguous loops with no per-element division.
pub struct ColsView<'a> {
    table: Vec<ColSeg>,
    rows: usize,
    writable: bool,
    _marker: std::marker::PhantomData<&'a mut [f32]>,
}

impl<'a> ColsView<'a> {
    /// Read-only view of `segs` as `(row-major slice, cols)` pairs placed
    /// side by side; total width is the sum of the `cols` values.
    ///
    /// # Errors
    /// Fails when a segment's length is not `rows * cols`.
    pub fn read(rows: usize, segs: &[(&'a [f32], usize)]) -> Result<ColsView<'a>, ExecError> {
        // Read-only: the pointers are never written through (`writable`
        // gates every store path).
        let iter = segs.iter().map(|(s, cols)| (s.as_ptr().cast_mut(), s.len(), *cols));
        Ok(ColsView {
            table: col_table(rows, iter)?,
            rows,
            writable: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Writable view of `segs` as `(row-major slice, cols)` pairs placed
    /// side by side.
    ///
    /// # Errors
    /// Fails when a segment's length is not `rows * cols`.
    pub fn write(
        rows: usize,
        segs: Vec<(&'a mut [f32], usize)>,
    ) -> Result<ColsView<'a>, ExecError> {
        let iter = segs.into_iter().map(|(s, cols)| (s.as_mut_ptr(), s.len(), cols));
        Ok(ColsView {
            table: col_table(rows, iter)?,
            rows,
            writable: true,
            _marker: std::marker::PhantomData,
        })
    }

    /// Total logical width (sum of the segment widths).
    #[must_use]
    pub fn width(&self) -> usize {
        self.table.len()
    }

    /// Logical row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn raw(&self) -> RawBuf {
        RawBuf::SegCols {
            table: self.table.as_ptr(),
            width: self.table.len(),
            rows: self.rows,
            writable: self.writable,
        }
    }
}

fn col_table(
    rows: usize,
    segs: impl Iterator<Item = (*mut f32, usize, usize)>,
) -> Result<Vec<ColSeg>, ExecError> {
    let mut table = Vec::new();
    for (i, (ptr, len, cols)) in segs.enumerate() {
        if len != rows * cols {
            return Err(ExecError::new(format!(
                "segmented binding: segment {i} has {len} elements, expected {rows}x{cols}"
            )));
        }
        let stride = u32::try_from(cols)
            .map_err(|_| ExecError::new("segmented binding: segment width overflows u32"))?;
        for c in 0..cols {
            // SAFETY: c < cols <= len elements behind ptr.
            table.push(ColSeg { ptr: unsafe { ptr.add(c) }, stride, rem: stride - c as u32 });
        }
    }
    Ok(table)
}

/// A row-segmented f32 binding: `n` equal-length contiguous segments
/// concatenated into one flat logical buffer (rider matrices stacked
/// along the leading axis).
pub struct RowsView<'a> {
    segs: Vec<RowSeg>,
    seg_len: usize,
    writable: bool,
    _marker: std::marker::PhantomData<&'a mut [f32]>,
}

impl<'a> RowsView<'a> {
    /// Read-only view of equal-length segments, each of `seg_len`
    /// elements.
    ///
    /// # Errors
    /// Fails when a segment's length differs from `seg_len`.
    pub fn read(seg_len: usize, segs: &[&'a [f32]]) -> Result<RowsView<'a>, ExecError> {
        let mut table = Vec::with_capacity(segs.len());
        for (i, s) in segs.iter().enumerate() {
            check_seg_len(i, s.len(), seg_len)?;
            table.push(RowSeg { ptr: s.as_ptr().cast_mut() });
        }
        Ok(RowsView { segs: table, seg_len, writable: false, _marker: std::marker::PhantomData })
    }

    /// Writable view of equal-length segments, each of `seg_len`
    /// elements.
    ///
    /// # Errors
    /// Fails when a segment's length differs from `seg_len`.
    pub fn write(seg_len: usize, segs: Vec<&'a mut [f32]>) -> Result<RowsView<'a>, ExecError> {
        let mut table = Vec::with_capacity(segs.len());
        for (i, s) in segs.into_iter().enumerate() {
            check_seg_len(i, s.len(), seg_len)?;
            table.push(RowSeg { ptr: s.as_mut_ptr() });
        }
        Ok(RowsView { segs: table, seg_len, writable: true, _marker: std::marker::PhantomData })
    }

    /// Number of segments.
    #[must_use]
    pub fn n_segs(&self) -> usize {
        self.segs.len()
    }

    fn raw(&self) -> RawBuf {
        RawBuf::SegRows {
            segs: self.segs.as_ptr(),
            n_segs: self.segs.len(),
            seg_len: self.seg_len,
            writable: self.writable,
        }
    }
}

fn check_seg_len(i: usize, len: usize, seg_len: usize) -> Result<(), ExecError> {
    if len != seg_len {
        return Err(ExecError::new(format!(
            "segmented binding: segment {i} has {len} elements, expected {seg_len}"
        )));
    }
    Ok(())
}

/// One binding handed to [`CompiledKernel::run_views`]: a whole tensor or
/// a segmented view.
pub enum BoundArg<'a> {
    /// A whole owned tensor, as [`CompiledKernel::run`] binds.
    Tensor(&'a mut TensorData),
    /// A column-segmented f32 view.
    Cols(ColsView<'a>),
    /// A row-segmented f32 view.
    Rows(RowsView<'a>),
}

/// Named bindings for [`CompiledKernel::run_views`], mixing whole tensors
/// with segmented views over caller-owned storage.
#[derive(Default)]
pub struct ViewBindings<'a> {
    map: HashMap<String, BoundArg<'a>>,
}

impl<'a> ViewBindings<'a> {
    /// Empty binding set.
    #[must_use]
    pub fn new() -> ViewBindings<'a> {
        ViewBindings::default()
    }

    /// Bind every tensor of `tensors` by name (the bridge from the
    /// copying path's binding map).
    pub fn from_tensors(tensors: &'a mut HashMap<String, TensorData>) -> ViewBindings<'a> {
        let map = tensors.iter_mut().map(|(k, v)| (k.clone(), BoundArg::Tensor(v))).collect();
        ViewBindings { map }
    }

    /// Bind a whole tensor under `name`.
    pub fn bind_tensor(&mut self, name: impl Into<String>, t: &'a mut TensorData) {
        self.map.insert(name.into(), BoundArg::Tensor(t));
    }

    /// Bind a column-segmented view under `name`.
    pub fn bind_cols(&mut self, name: impl Into<String>, v: ColsView<'a>) {
        self.map.insert(name.into(), BoundArg::Cols(v));
    }

    /// Bind a row-segmented view under `name`.
    pub fn bind_rows(&mut self, name: impl Into<String>, v: RowsView<'a>) {
        self.map.insert(name.into(), BoundArg::Rows(v));
    }
}

// ---------------------------------------------------------------------------
// Memory plan + buffer pool
// ---------------------------------------------------------------------------

/// One buffer slot's compile-time memory requirement.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Source buffer name.
    pub name: String,
    /// Element type (`f32` when true).
    pub is_float: bool,
    /// Statically known element count — `Some` when every shape extent is
    /// a compile-time constant.
    pub len: Option<usize>,
    /// True for kernel-local `Allocate` scratch (served from the buffer
    /// pool at run time) rather than a caller binding.
    pub local: bool,
}

/// A [`CompiledKernel`]'s memory plan: per-buffer-slot requirements
/// computed once at compile time, keying the size-classed [`BufferPool`]
/// and rendered into the disassembly header.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlan {
    /// One entry per buffer slot, in slot order.
    pub entries: Vec<PlanEntry>,
}

impl MemoryPlan {
    fn of(
        func: &PrimFunc,
        buffers: &[(String, bool, u32)],
        buf_names: &[String],
        tree: &CStmt,
    ) -> MemoryPlan {
        let mut entries: Vec<PlanEntry> = buf_names
            .iter()
            .map(|n| PlanEntry { name: n.clone(), is_float: true, len: None, local: true })
            .collect();
        for (name, is_float, slot) in buffers {
            let e = &mut entries[*slot as usize];
            e.local = false;
            e.is_float = *is_float;
            if let Some(b) = func.buffers.iter().find(|b| &*b.name == name.as_str()) {
                e.len = const_shape_product(&b.shape);
            }
        }
        collect_allocs(tree, &mut entries);
        MemoryPlan { entries }
    }

    /// Total statically planned bytes (4-byte elements) across all slots
    /// with a known length.
    #[must_use]
    pub fn static_bytes(&self) -> usize {
        self.entries.iter().filter_map(|e| e.len).map(|l| l * 4).sum()
    }

    /// Number of kernel-local scratch slots served from the pool.
    #[must_use]
    pub fn pooled_locals(&self) -> usize {
        self.entries.iter().filter(|e| e.local).count()
    }
}

fn const_shape_product(dims: &[Expr]) -> Option<usize> {
    let mut p: i64 = 1;
    for d in dims {
        match d {
            Expr::Int { value, .. } => p = p.checked_mul(*value)?,
            _ => return None,
        }
    }
    usize::try_from(p).ok()
}

fn collect_allocs(s: &CStmt, entries: &mut [PlanEntry]) {
    match s {
        CStmt::Alloc { buf, is_float, len_dims, body } => {
            let e = &mut entries[*buf as usize];
            e.is_float = *is_float;
            e.local = true;
            let mut p: i64 = 1;
            let mut known = true;
            for d in len_dims {
                match d {
                    IntExpr::Const(c) => p = p.saturating_mul(*c),
                    _ => known = false,
                }
            }
            if known {
                e.len = usize::try_from(p).ok();
            }
            collect_allocs(body, entries);
        }
        CStmt::For { body, .. } | CStmt::ParFor { body, .. } | CStmt::Let { body, .. } => {
            collect_allocs(body, entries);
        }
        CStmt::Block(b) => {
            if let Some(init) = &b.init {
                collect_allocs(init, entries);
            }
            collect_allocs(&b.body, entries);
        }
        CStmt::Seq(v) => {
            for s in v {
                collect_allocs(s, entries);
            }
        }
        CStmt::If { then_, else_, .. } => {
            collect_allocs(then_, entries);
            if let Some(e) = else_ {
                collect_allocs(e, entries);
            }
        }
        _ => {}
    }
}

/// Number of power-of-two size classes in a [`BufferPool`].
const POOL_CLASSES: usize = 48;

/// Free buffers retained per size class (bounds idle memory).
const POOL_MAX_PER_CLASS: usize = 8;

fn size_class(len: usize) -> usize {
    (len.max(1).next_power_of_two().trailing_zeros() as usize).min(POOL_CLASSES - 1)
}

/// Size-classed pool of scratch buffers keyed by a kernel's
/// [`MemoryPlan`] requirements. `acquire_*` pops a free buffer of the
/// next-power-of-two class (a *hit*) or heap-allocates one (a *miss*) and
/// returns it zeroed either way; `release_*` files storage back by
/// capacity class. Kernels compiled through one [`Runtime`] share its
/// pool, so the serving engine's per-launch scratch (widened outputs,
/// fused-attention intermediates) stops hitting the allocator once warm.
pub struct BufferPool {
    f32_free: Vec<Mutex<Vec<Vec<f32>>>>,
    i32_free: Vec<Mutex<Vec<Vec<i32>>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new()
    }
}

impl BufferPool {
    /// Empty pool.
    #[must_use]
    pub fn new() -> BufferPool {
        BufferPool {
            f32_free: (0..POOL_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            i32_free: (0..POOL_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// A zeroed `f32` buffer of exactly `len` elements.
    #[must_use]
    pub fn acquire_f32(&self, len: usize) -> Vec<f32> {
        let c = size_class(len);
        if let Some(mut v) = self.f32_free[c].lock().unwrap().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v.resize(len, 0.0);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut v = Vec::with_capacity(len.max(1).next_power_of_two());
        v.resize(len, 0.0);
        v
    }

    /// A zeroed `i32` buffer of exactly `len` elements.
    #[must_use]
    pub fn acquire_i32(&self, len: usize) -> Vec<i32> {
        let c = size_class(len);
        if let Some(mut v) = self.i32_free[c].lock().unwrap().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v.resize(len, 0);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut v = Vec::with_capacity(len.max(1).next_power_of_two());
        v.resize(len, 0);
        v
    }

    /// Return an `f32` buffer's storage to the pool.
    pub fn release_f32(&self, v: Vec<f32>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        let c = (cap.ilog2() as usize).min(POOL_CLASSES - 1);
        let mut free = self.f32_free[c].lock().unwrap();
        if free.len() < POOL_MAX_PER_CLASS {
            free.push(v);
        }
    }

    /// Return an `i32` buffer's storage to the pool.
    pub fn release_i32(&self, v: Vec<i32>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        let c = (cap.ilog2() as usize).min(POOL_CLASSES - 1);
        let mut free = self.i32_free[c].lock().unwrap();
        if free.len() < POOL_MAX_PER_CLASS {
            free.push(v);
        }
    }

    /// `(hits, misses)` counters, cumulative since construction.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// Number of stripes in the [`Runtime`] kernel cache. Keys land in a
/// stripe by fingerprint bits, so concurrent compilations of *unrelated*
/// functions (the serving engine's steady state) almost never touch the
/// same lock.
const CACHE_SHARDS: usize = 16;

/// One cache entry: a single-flight cell. The first thread to claim a key
/// inserts the cell under the stripe lock (cheap) and compiles *outside*
/// it; racing threads for the same key block on [`OnceLock::get_or_init`]
/// and receive the one shared kernel, so a compile storm on one hot
/// function costs exactly one compilation. Compile errors are cached too —
/// compilation is deterministic in the printed IR, so a failing function
/// fails identically forever.
type CacheCell = Arc<OnceLock<Result<Arc<CompiledKernel>, ExecError>>>;

/// Cache key: function fingerprint and fusion flag.
type CacheKey = (u64, bool);

/// Compile-once/run-many cache of [`CompiledKernel`]s keyed by function
/// identity (name + printed IR) and the fusion flag, so toggling fusion
/// never serves a stale compiled kernel. The map is striped across
/// `CACHE_SHARDS` locks with per-key single-flight compilation (see
/// `CacheCell`); [`Runtime::cached`] and [`Runtime::compilations`] remain
/// exact across shards even when fused and generic compilations of one
/// function coexist.
pub struct Runtime {
    shards: Vec<Mutex<HashMap<CacheKey, CacheCell>>>,
    compilations: std::sync::atomic::AtomicUsize,
    fuse: bool,
    /// Shared by every kernel compiled through this runtime.
    pool: Arc<BufferPool>,
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::with_fusion(true)
    }
}

impl Runtime {
    /// Empty runtime with fusion on.
    #[must_use]
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// Empty runtime with an explicit fusion setting for
    /// [`Runtime::compile`].
    #[must_use]
    pub fn with_fusion(fuse: bool) -> Runtime {
        Runtime {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            compilations: std::sync::atomic::AtomicUsize::new(0),
            fuse,
            pool: Arc::new(BufferPool::new()),
        }
    }

    /// The size-classed scratch pool shared by every kernel this runtime
    /// compiles (hit/miss counters feed `EngineStats`).
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// This runtime's fusion setting.
    #[must_use]
    pub fn fusion(&self) -> bool {
        self.fuse
    }

    /// The process-wide shared runtime (what [`exec_func`] uses).
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(Runtime::new)
    }

    /// Fingerprint used as the cache key: name plus printed IR, which the
    /// printer renders canonically (slots, extents, bindings).
    #[must_use]
    pub fn fingerprint(func: &PrimFunc) -> u64 {
        let mut h = DefaultHasher::new();
        func.name.hash(&mut h);
        print_func(func).hash(&mut h);
        h.finish()
    }

    /// Compile `func` under this runtime's fusion setting, or return the
    /// cached kernel compiled earlier for an identical function.
    ///
    /// # Errors
    /// Propagates [`CompiledKernel::compile`] errors.
    pub fn compile(&self, func: &PrimFunc) -> Result<Arc<CompiledKernel>, ExecError> {
        self.compile_with(func, self.fuse)
    }

    /// Compile `func` with an explicit fusion flag. The cache key is
    /// `(fingerprint, fuse)`, so the fused and generic compilations of one
    /// function coexist and every recompilation — including one after
    /// toggling the flag — is counted by [`Runtime::compilations`] instead
    /// of serving a stale kernel. Concurrent callers racing on one key are
    /// single-flighted: exactly one thread compiles, the rest block and
    /// share the result.
    ///
    /// # Errors
    /// Propagates [`CompiledKernel::compile`] errors.
    pub fn compile_with(
        &self,
        func: &PrimFunc,
        fuse: bool,
    ) -> Result<Arc<CompiledKernel>, ExecError> {
        let key = (Self::fingerprint(func), fuse);
        let cell: CacheCell = {
            let mut shard = self.shards[Self::shard_of(key)].lock().unwrap();
            Arc::clone(shard.entry(key).or_default())
        };
        // Outside the stripe lock: a slow compilation never blocks lookups
        // of other keys in the same stripe, only co-claimants of this key.
        cell.get_or_init(|| {
            let mut kernel = CompiledKernel::compile_with(func, fuse)?;
            // Kernels compiled through a runtime draw scratch from its
            // shared pool rather than a private one.
            kernel.pool = Arc::clone(&self.pool);
            self.compilations.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(kernel))
        })
        .clone()
    }

    fn shard_of(key: CacheKey) -> usize {
        // The fingerprint is already a hash; fold the fusion flag into the
        // low (shard-selecting) bit so both compilations of one function
        // can land apart.
        ((key.0 ^ u64::from(key.1)) % CACHE_SHARDS as u64) as usize
    }

    /// Number of cached kernels (successful compilations present in the
    /// cache; in-flight and failed entries are not counted). Exact across
    /// shards.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().values().filter(|c| matches!(c.get(), Some(Ok(_)))).count())
            .sum()
    }

    /// Monotonic count of actual compilations performed (cache misses).
    /// Unlike [`Runtime::cached`] this never decreases, so it cleanly
    /// asserts "no new compilation happened" across an operation.
    #[must_use]
    pub fn compilations(&self) -> usize {
        self.compilations.load(Ordering::Relaxed)
    }
}

/// Drop-in replacement for [`crate::eval::eval_func`] backed by the global
/// kernel cache: compiles on first sight of a function, then reuses the
/// slot-compiled program for every subsequent call.
///
/// # Errors
/// Returns [`ExecError`] under the interpreter's error conditions.
pub fn exec_func(
    func: &PrimFunc,
    scalars: &HashMap<String, i64>,
    tensors: &mut HashMap<String, TensorData>,
) -> Result<(), ExecError> {
    Runtime::global().compile(func)?.run(scalars, tensors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, Scope};
    use crate::dtype::DType;
    use crate::eval::{eval_func, scalar_map};
    use crate::expr::Expr;
    use crate::stmt::{Block, IterVar, ThreadAxis};

    fn run_both(
        f: &PrimFunc,
        scalars: &HashMap<String, i64>,
        tensors: &HashMap<String, TensorData>,
    ) -> (HashMap<String, TensorData>, HashMap<String, TensorData>) {
        let mut a = tensors.clone();
        let mut b = tensors.clone();
        eval_func(f, scalars, &mut a).expect("interpreter");
        exec_func(f, scalars, &mut b).expect("executor");
        (a, b)
    }

    #[test]
    fn vector_add_matches_interpreter() {
        let i = Var::i32("i");
        let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
        let b = Buffer::global_f32("B", vec![Expr::i32(4)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let body = Stmt::for_serial(
            i.clone(),
            4,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: a.load(vec![Expr::var(&i)]) + b.load(vec![Expr::var(&i)]),
            },
        );
        let f = PrimFunc::new("add", vec![], vec![a, b, c], body);
        let mut tensors = HashMap::new();
        tensors.insert("A".to_string(), TensorData::from(vec![1.0f32, 2.0, 3.0, 4.0]));
        tensors.insert("B".to_string(), TensorData::from(vec![10.0f32, 20.0, 30.0, 40.0]));
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 4));
        let (ia, ea) = run_both(&f, &HashMap::new(), &tensors);
        assert_eq!(ia["C"], ea["C"]);
        assert_eq!(ea["C"].as_f32(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn reduction_block_matches_interpreter() {
        let i = Var::i32("i");
        let j = Var::i32("j");
        let a = Buffer::global_f32("A", vec![Expr::i32(2), Expr::i32(3)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(2)]);
        let vi = Var::i32("vi");
        let vj = Var::i32("vj");
        let block = Stmt::Block(Block {
            name: "sum".into(),
            iter_vars: vec![
                IterVar::spatial(vi.clone(), Expr::var(&i)),
                IterVar::reduce(vj.clone(), Expr::var(&j)),
            ],
            reads: vec![],
            writes: vec![],
            init: Some(Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&vi)],
                value: Expr::f32(0.0),
            })),
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&vi)],
                value: c.load(vec![Expr::var(&vi)]) + a.load(vec![Expr::var(&vi), Expr::var(&vj)]),
            }),
        });
        let body = Stmt::for_serial(i.clone(), 2, Stmt::for_serial(j.clone(), 3, block));
        let f = PrimFunc::new("rowsum", vec![], vec![a, c], body);
        let mut tensors = HashMap::new();
        tensors.insert("A".to_string(), TensorData::from(vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]));
        tensors.insert("C".to_string(), TensorData::from(vec![99.0f32, 99.0]));
        let (ia, ea) = run_both(&f, &HashMap::new(), &tensors);
        assert_eq!(ia["C"], ea["C"]);
        assert_eq!(ea["C"].as_f32(), &[6.0, 15.0]);
    }

    #[test]
    fn block_bound_loop_parallelizes_and_matches() {
        // C[i] = i over a blockIdx.x-bound loop: parallel-dispatch path.
        let i = Var::i32("i");
        let c = Buffer::global_f32("C", vec![Expr::i32(1024)]);
        let body = Stmt::For {
            var: i.clone(),
            extent: Expr::i32(1024),
            kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: Expr::var(&i).cast(DType::F32),
            }),
        };
        let f = PrimFunc::new("iota", vec![], vec![c], body);
        let k = CompiledKernel::compile(&f).unwrap();
        assert!(k.is_parallel(), "outermost blockIdx loop should parallelize");
        let mut tensors = HashMap::new();
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 1024));
        k.run(&HashMap::new(), &mut tensors).unwrap();
        let expect: Vec<f32> = (0..1024).map(|x| x as f32).collect();
        assert_eq!(tensors["C"].as_f32(), expect.as_slice());
    }

    #[test]
    fn unsafe_block_write_falls_back_to_serial() {
        // C[0] += 1 under a blockIdx loop: collides, must stay serial.
        let i = Var::i32("i");
        let c = Buffer::global_f32("C", vec![Expr::i32(1)]);
        let body = Stmt::For {
            var: i.clone(),
            extent: Expr::i32(64),
            kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::i32(0)],
                value: c.load(vec![Expr::i32(0)]) + 1.0f32,
            }),
        };
        let f = PrimFunc::new("collide", vec![], vec![c], body);
        let k = CompiledKernel::compile(&f).unwrap();
        assert!(!k.is_parallel(), "colliding writes must not parallelize");
        let mut tensors = HashMap::new();
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 1));
        k.run(&HashMap::new(), &mut tensors).unwrap();
        assert_eq!(tensors["C"].as_f32(), &[64.0]);
    }

    #[test]
    fn reduction_over_block_var_falls_back_to_serial() {
        let i = Var::i32("i");
        let c = Buffer::global_f32("C", vec![Expr::i32(1)]);
        let vj = Var::i32("vj");
        let block = Stmt::Block(Block {
            name: "s".into(),
            iter_vars: vec![IterVar::reduce(vj.clone(), Expr::var(&i))],
            reads: vec![],
            writes: vec![],
            init: Some(Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::i32(0)],
                value: Expr::f32(0.0),
            })),
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::i32(0)],
                value: c.load(vec![Expr::i32(0)]) + Expr::var(&vj).cast(DType::F32),
            }),
        });
        let body = Stmt::For {
            var: i.clone(),
            extent: Expr::i32(8),
            kind: ForKind::ThreadBinding(ThreadAxis::BlockIdxX),
            body: Box::new(block),
        };
        let f = PrimFunc::new("redblk", vec![], vec![c], body);
        let k = CompiledKernel::compile(&f).unwrap();
        assert!(!k.is_parallel());
        let mut t = HashMap::new();
        t.insert("C".to_string(), TensorData::zeros(DType::F32, 1));
        let mut t2 = t.clone();
        k.run(&HashMap::new(), &mut t).unwrap();
        eval_func(&f, &HashMap::new(), &mut t2).unwrap();
        assert_eq!(t["C"], t2["C"]);
    }

    #[test]
    fn scalar_params_and_scoped_allocate_match() {
        let n = Var::i32("n");
        let i = Var::i32("i");
        let tmp = Buffer::new("tmp", DType::F32, vec![Expr::i32(2)], Scope::Shared);
        let out = Buffer::global_f32("out", vec![Expr::var(&n)]);
        let inner = Stmt::Allocate {
            buffer: tmp.clone(),
            body: Box::new(
                Stmt::BufferStore {
                    buffer: tmp.clone(),
                    indices: vec![Expr::i32(0)],
                    value: Expr::var(&i).cast(DType::F32) * 3.0f32,
                }
                .then(Stmt::BufferStore {
                    buffer: out.clone(),
                    indices: vec![Expr::var(&i)],
                    value: tmp.load(vec![Expr::i32(0)]) + 1.0f32,
                }),
            ),
        };
        let body = Stmt::for_serial(i.clone(), Expr::var(&n), inner);
        let f = PrimFunc::new("staged", vec![n], vec![out], body);
        let scalars = scalar_map(&[("n", 5)]);
        let mut tensors = HashMap::new();
        tensors.insert("out".to_string(), TensorData::zeros(DType::F32, 5));
        let (ia, ea) = run_both(&f, &scalars, &tensors);
        assert_eq!(ia["out"], ea["out"]);
        assert_eq!(ea["out"].as_f32(), &[1.0, 4.0, 7.0, 10.0, 13.0]);
    }

    #[test]
    fn binary_search_matches_interpreter() {
        let idx = Buffer::global_i32("indices", vec![Expr::i32(5)]);
        let out = Buffer::global_i32("out", vec![Expr::i32(1)]);
        let call = Expr::Call {
            intrin: Intrinsic::BinarySearch,
            args: vec![idx.load(vec![Expr::i32(0)]), Expr::i32(0), Expr::i32(5), Expr::i32(9)],
        };
        let body =
            Stmt::BufferStore { buffer: out.clone(), indices: vec![Expr::i32(0)], value: call };
        let f = PrimFunc::new("find", vec![], vec![idx, out], body);
        let mut tensors = HashMap::new();
        tensors.insert("indices".to_string(), TensorData::from(vec![1, 3, 9, 10, 12]));
        tensors.insert("out".to_string(), TensorData::zeros(DType::I32, 1));
        let (ia, ea) = run_both(&f, &HashMap::new(), &tensors);
        assert_eq!(ia["out"], ea["out"]);
        assert_eq!(ea["out"].as_i32(), &[2]);
    }

    #[test]
    fn mma_sync_matches_interpreter() {
        let a = Buffer::global_f32("A", vec![Expr::i32(4)]);
        let b = Buffer::global_f32("B", vec![Expr::i32(4)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let tile = |buf: &Buffer, stride: i64| TensorTile {
            buffer: buf.clone(),
            offset: Expr::i32(0),
            row_stride: Expr::i32(stride),
        };
        let body =
            Stmt::MmaSync { c: tile(&c, 2), a: tile(&a, 2), b: tile(&b, 2), m: 2, n: 2, k: 2 };
        let f = PrimFunc::new("mma", vec![], vec![a, b, c], body);
        let mut tensors = HashMap::new();
        tensors.insert("A".to_string(), TensorData::from(vec![1.0f32, 2.0, 3.0, 4.0]));
        tensors.insert("B".to_string(), TensorData::from(vec![5.0f32, 6.0, 7.0, 8.0]));
        tensors.insert("C".to_string(), TensorData::from(vec![1.0f32, 0.0, 0.0, 0.0]));
        let (ia, ea) = run_both(&f, &HashMap::new(), &tensors);
        assert_eq!(ia["C"], ea["C"]);
        assert_eq!(ea["C"].as_f32(), &[20.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn out_of_bounds_and_missing_bindings_error() {
        let c = Buffer::global_f32("C", vec![Expr::i32(2)]);
        let body = Stmt::BufferStore {
            buffer: c.clone(),
            indices: vec![Expr::i32(5)],
            value: Expr::f32(0.0),
        };
        let f = PrimFunc::new("f", vec![], vec![c.clone()], body);
        let mut tensors = HashMap::new();
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 2));
        let err = exec_func(&f, &HashMap::new(), &mut tensors).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");

        let g = PrimFunc::new("g", vec![], vec![c], Stmt::nop());
        let err = exec_func(&g, &HashMap::new(), &mut HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("missing tensor binding"), "{err}");
    }

    #[test]
    fn division_by_zero_errors() {
        let out = Buffer::global_i32("out", vec![Expr::i32(1)]);
        let body = Stmt::BufferStore {
            buffer: out.clone(),
            indices: vec![Expr::i32(0)],
            value: Expr::i32(4) / Expr::i32(1).min(0),
        };
        let f = PrimFunc::new("div0", vec![], vec![out], body);
        let mut tensors = HashMap::new();
        tensors.insert("out".to_string(), TensorData::zeros(DType::I32, 1));
        let err = exec_func(&f, &HashMap::new(), &mut tensors).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    /// Functions differing only in an MMA tile's `row_stride` must not
    /// collide in the kernel cache (regression: the printer once omitted
    /// strides from the rendered IR the fingerprint hashes).
    #[test]
    fn mma_stride_changes_fingerprint() {
        let build = |stride: i64| {
            let a = Buffer::global_f32("A", vec![Expr::i32(64)]);
            let b = Buffer::global_f32("B", vec![Expr::i32(64)]);
            let c = Buffer::global_f32("C", vec![Expr::i32(64)]);
            let tile = |buf: &Buffer| TensorTile {
                buffer: buf.clone(),
                offset: Expr::i32(0),
                row_stride: Expr::i32(stride),
            };
            let body = Stmt::MmaSync { c: tile(&c), a: tile(&a), b: tile(&b), m: 2, n: 2, k: 2 };
            PrimFunc::new("mma", vec![], vec![a, b, c], body)
        };
        assert_ne!(Runtime::fingerprint(&build(2)), Runtime::fingerprint(&build(4)));
    }

    /// A float-valued `let` in dead code must not fail compilation — the
    /// interpreter only errors when the binding executes.
    #[test]
    fn float_let_in_dead_branch_is_lazy() {
        let out = Buffer::global_f32("out", vec![Expr::i32(1)]);
        let t = Var::i32("t");
        let bad_let = Stmt::Let { var: t, value: Expr::f32(1.5), body: Box::new(Stmt::nop()) };
        let body = Stmt::IfThenElse {
            cond: Expr::i32(0).gt(Expr::i32(1)),
            then_branch: Box::new(bad_let),
            else_branch: Some(Box::new(Stmt::BufferStore {
                buffer: out.clone(),
                indices: vec![Expr::i32(0)],
                value: Expr::f32(2.0),
            })),
        };
        let f = PrimFunc::new("lazy", vec![], vec![out], body);
        let mut tensors = HashMap::new();
        tensors.insert("out".to_string(), TensorData::zeros(DType::F32, 1));
        exec_func(&f, &HashMap::new(), &mut tensors).expect("dead float let must not block");
        assert_eq!(tensors["out"].as_f32(), &[2.0]);
    }

    #[test]
    fn runtime_cache_hits_on_identical_functions() {
        let rt = Runtime::new();
        let build = || {
            let i = Var::i32("i");
            let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
            let body = Stmt::for_serial(
                i.clone(),
                4,
                Stmt::BufferStore {
                    buffer: c.clone(),
                    indices: vec![Expr::var(&i)],
                    value: Expr::f32(1.0),
                },
            );
            PrimFunc::new("ones", vec![], vec![c], body)
        };
        let k1 = rt.compile(&build()).unwrap();
        let k2 = rt.compile(&build()).unwrap();
        assert!(Arc::ptr_eq(&k1, &k2), "identical functions must share one kernel");
        assert_eq!(rt.cached(), 1);

        // A different function compiles separately.
        let j = Var::i32("j");
        let c = Buffer::global_f32("C", vec![Expr::i32(4)]);
        let other = PrimFunc::new(
            "twos",
            vec![],
            vec![c.clone()],
            Stmt::for_serial(
                j.clone(),
                4,
                Stmt::BufferStore {
                    buffer: c,
                    indices: vec![Expr::var(&j)],
                    value: Expr::f32(2.0),
                },
            ),
        );
        let k3 = rt.compile(&other).unwrap();
        assert!(!Arc::ptr_eq(&k1, &k3));
        assert_eq!(rt.cached(), 2);
    }

    /// Build the canonical fusable lane loop:
    /// `for k in 0..n { block { init: C[k] = 0 if j == 0; C[k] += A[0] * B[k] } }`
    /// wrapped in a serial `j` loop supplying the reduce binding.
    fn axpy_func(n: i64) -> PrimFunc {
        let j = Var::i32("j");
        let k = Var::i32("k");
        let vk = Var::i32("vk");
        let vp = Var::i32("vp");
        let a = Buffer::global_f32("A", vec![Expr::i32(1)]);
        let b = Buffer::global_f32("B", vec![Expr::i32(n)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(n)]);
        let block = Stmt::Block(Block {
            name: "acc".into(),
            iter_vars: vec![
                IterVar::spatial(vk.clone(), Expr::var(&k)),
                IterVar::reduce(vp.clone(), Expr::var(&j)),
            ],
            reads: vec![],
            writes: vec![],
            init: Some(Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&vk)],
                value: Expr::f32(0.0),
            })),
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&vk)],
                value: c.load(vec![Expr::var(&vk)])
                    + a.load(vec![Expr::i32(0)]) * b.load(vec![Expr::var(&vk)]),
            }),
        });
        let body = Stmt::for_serial(j.clone(), 3, Stmt::for_serial(k.clone(), n, block));
        PrimFunc::new("axpy", vec![], vec![a, b, c], body)
    }

    #[test]
    fn fusion_produces_axpy_and_matches_generic() {
        let f = axpy_func(8);
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        let generic = CompiledKernel::compile_with(&f, false).unwrap();
        assert_eq!(fused.fused_ops(), 1);
        assert_eq!(fused.fused_kinds(), vec!["AxpyLanes"]);
        assert_eq!(generic.fused_ops(), 0);
        let mut t = HashMap::new();
        t.insert("A".to_string(), TensorData::from(vec![1.5f32]));
        t.insert("B".to_string(), TensorData::from((0..8).map(|x| x as f32).collect::<Vec<_>>()));
        t.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
        let mut tf = t.clone();
        let mut tg = t.clone();
        fused.run(&HashMap::new(), &mut tf).unwrap();
        generic.run(&HashMap::new(), &mut tg).unwrap();
        assert_eq!(tf["C"], tg["C"]);
        // Three reduce iterations of 1.5 * B[k].
        let expect: Vec<f32> = (0..8).map(|x| 4.5 * x as f32).collect();
        assert_eq!(tf["C"].as_f32(), expect.as_slice());
    }

    /// Toggling fusion must recompile (counted) and never serve the other
    /// flag's kernel from the cache — the cache key includes the flag.
    #[test]
    fn fusion_flag_is_part_of_the_cache_key() {
        let rt = Runtime::with_fusion(true);
        let f = axpy_func(8);
        let generic = rt.compile_with(&f, false).unwrap();
        assert_eq!(rt.compilations(), 1);
        let fused = rt.compile_with(&f, true).unwrap();
        assert_eq!(rt.compilations(), 2, "fused recompilation must be counted");
        assert!(!Arc::ptr_eq(&generic, &fused));
        assert_eq!(generic.fused_ops(), 0);
        assert_eq!(fused.fused_ops(), 1);
        // Both flags now hit their own cache entries.
        assert!(Arc::ptr_eq(&generic, &rt.compile_with(&f, false).unwrap()));
        assert!(Arc::ptr_eq(&fused, &rt.compile_with(&f, true).unwrap()));
        assert!(Arc::ptr_eq(&fused, &rt.compile(&f).unwrap()), "runtime default is fused");
        assert_eq!(rt.compilations(), 2);
        assert_eq!(rt.cached(), 2);
    }

    /// A lane loop whose source walks a non-unit stride must stay on the
    /// generic tree (contiguity requirement) yet still execute correctly.
    #[test]
    fn non_contiguous_source_is_not_fused() {
        let k = Var::i32("k");
        let b = Buffer::global_f32("B", vec![Expr::i32(16)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
        let body = Stmt::for_serial(
            k.clone(),
            8,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&k)],
                value: c.load(vec![Expr::var(&k)]) + b.load(vec![Expr::var(&k) * 2]) * 2.0f32,
            },
        );
        let f = PrimFunc::new("strided", vec![], vec![b, c], body);
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        assert_eq!(fused.fused_ops(), 0, "stride-2 source must not fuse");
        let mut t = HashMap::new();
        t.insert("B".to_string(), TensorData::from((0..16).map(|x| x as f32).collect::<Vec<_>>()));
        t.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
        let mut t2 = t.clone();
        fused.run(&HashMap::new(), &mut t).unwrap();
        eval_func(&f, &HashMap::new(), &mut t2).unwrap();
        assert_eq!(t["C"], t2["C"]);
    }

    /// Reading the written buffer anywhere in the loop (here: the scale
    /// factor) defeats invariance hoisting, so fusion must decline.
    #[test]
    fn aliased_coefficient_is_not_fused() {
        let k = Var::i32("k");
        let b = Buffer::global_f32("B", vec![Expr::i32(8)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
        let body = Stmt::for_serial(
            k.clone(),
            8,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&k)],
                value: c.load(vec![Expr::var(&k)])
                    + c.load(vec![Expr::i32(0)]) * b.load(vec![Expr::var(&k)]),
            },
        );
        let f = PrimFunc::new("alias", vec![], vec![b, c], body);
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        assert_eq!(fused.fused_ops(), 0, "coefficient loads the written buffer");
        let mut t = HashMap::new();
        t.insert("B".to_string(), TensorData::from(vec![1.0f32; 8]));
        t.insert("C".to_string(), TensorData::from(vec![2.0f32; 8]));
        let mut t2 = t.clone();
        fused.run(&HashMap::new(), &mut t).unwrap();
        eval_func(&f, &HashMap::new(), &mut t2).unwrap();
        assert_eq!(t["C"], t2["C"]);
    }

    /// Out-of-bounds lanes must fall back to the generic loop and report
    /// the interpreter's exact error.
    #[test]
    fn fused_bounds_violation_falls_back_with_identical_error() {
        let k = Var::i32("k");
        let n = Var::i32("n");
        let b = Buffer::global_f32("B", vec![Expr::i32(8)]);
        let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
        // Extent is a scalar param: the kernel fuses (extent is dynamic),
        // and binding n = 12 overruns both buffers at run time.
        let body = Stmt::For {
            var: k.clone(),
            extent: Expr::var(&n),
            kind: ForKind::Serial,
            body: Box::new(Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&k)],
                value: c.load(vec![Expr::var(&k)]) + Expr::f32(2.0) * b.load(vec![Expr::var(&k)]),
            }),
        };
        let f = PrimFunc::new("oob", vec![n], vec![b, c], body);
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        assert_eq!(fused.fused_ops(), 1);
        let mut tensors = HashMap::new();
        tensors.insert("B".to_string(), TensorData::from(vec![1.0f32; 8]));
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
        let scalars = scalar_map(&[("n", 12)]);
        let mut t2 = tensors.clone();
        let fast = fused.run(&scalars, &mut tensors).unwrap_err();
        let generic = CompiledKernel::compile_with(&f, false).unwrap();
        let slow = generic.run(&scalars, &mut t2).unwrap_err();
        assert_eq!(fast, slow, "fallback must reproduce the generic error exactly");
        let mut t3 = t2.clone();
        let interp = eval_func(&f, &scalars, &mut t3).unwrap_err();
        assert!(interp
            .to_string()
            .ends_with("index 8 out of bounds for dim of extent 8 in buffer `C`"));
        // The in-bounds prefix written by the generic fallback matches.
        assert_eq!(tensors["C"], t2["C"]);
    }

    #[test]
    fn frames_are_reused_across_runs() {
        let i = Var::i32("i");
        let c = Buffer::global_f32("C", vec![Expr::i32(8)]);
        let body = Stmt::for_serial(
            i.clone(),
            8,
            Stmt::BufferStore {
                buffer: c.clone(),
                indices: vec![Expr::var(&i)],
                value: Expr::var(&i).cast(DType::F32),
            },
        );
        let f = PrimFunc::new("iota8", vec![], vec![c], body);
        let k = CompiledKernel::compile(&f).unwrap();
        let mut tensors = HashMap::new();
        tensors.insert("C".to_string(), TensorData::zeros(DType::F32, 8));
        for _ in 0..3 {
            k.run(&HashMap::new(), &mut tensors).unwrap();
        }
        assert_eq!(k.frame_pool.lock().unwrap().len(), 1, "scratch frame is pooled");
    }

    /// The fused listing carries the superinstruction and the fusion flag.
    #[test]
    fn fused_disassembly_shows_the_superinstruction() {
        let f = axpy_func(8);
        let fused = CompiledKernel::compile_with(&f, true).unwrap();
        let listing = fused.disassemble();
        assert!(
            listing.contains("super.axpy"),
            "fused listing has the superinstruction:\n{listing}"
        );
        assert!(listing.contains(";; kernel `axpy` fuse=on"));
    }
}
