#include "workload/kernels.hh"

#include "ir/parser.hh"
#include "support/logging.hh"

namespace sched91
{

namespace
{

// Linpack's daxpy inner loop, unrolled 4x: dy[i] += da * dx[i].
// da lives in %f30:%f31; %i0 = dx, %i1 = dy.
const char *kDaxpy = R"(
daxpy:
    lddf  [%i0+0],  %f0
    lddf  [%i1+0],  %f2
    fmuld %f0, %f30, %f4
    faddd %f2, %f4, %f6
    stdf  %f6, [%i1+0]
    lddf  [%i0+8],  %f8
    lddf  [%i1+8],  %f10
    fmuld %f8, %f30, %f12
    faddd %f10, %f12, %f14
    stdf  %f14, [%i1+8]
    lddf  [%i0+16], %f16
    lddf  [%i1+16], %f18
    fmuld %f16, %f30, %f20
    faddd %f18, %f20, %f22
    stdf  %f22, [%i1+16]
    lddf  [%i0+24], %f24
    lddf  [%i1+24], %f26
    fmuld %f24, %f30, %f28
    faddd %f26, %f28, %f0
    stdf  %f0, [%i1+24]
    add   %l0, 4, %l0
    cmp   %l0, 400
    bl    daxpy
    nop
)";

// Livermore loop 1 (hydro fragment), unrolled 2x:
// x[k] = q + y[k] * (r * z[k+10] + t * z[k+11]).
// q = %f20, r = %f26, t = %f28; %i0 = x, %i1 = y, %i2 = z.
const char *kLivermore1 = R"(
lloop1:
    lddf  [%i2+80], %f0
    lddf  [%i2+88], %f2
    fmuld %f0, %f26, %f4
    fmuld %f2, %f28, %f6
    faddd %f4, %f6, %f8
    lddf  [%i1+0],  %f10
    fmuld %f10, %f8, %f12
    faddd %f12, %f20, %f14
    stdf  %f14, [%i0+0]
    lddf  [%i2+96], %f16
    fmuld %f2, %f26, %f18
    fmuld %f16, %f28, %f22
    faddd %f18, %f22, %f24
    lddf  [%i1+8],  %f10
    fmuld %f10, %f24, %f12
    faddd %f12, %f20, %f14
    stdf  %f14, [%i0+8]
    add   %l0, 2, %l0
    cmp   %l0, 1000
    bl    lloop1
    nop
)";

// One point of the tomcatv mesh relaxation: loads from several arrays
// with a divide on the critical path.
const char *kTomcatv = R"(
tomcatv:
    lddf  [%i0+0],   %f0
    lddf  [%i0+8],   %f2
    lddf  [%i0+16],  %f4
    lddf  [%i1+0],   %f6
    lddf  [%i1+8],   %f8
    lddf  [%i1+16],  %f10
    fsubd %f4, %f0, %f12
    fsubd %f10, %f6, %f14
    fmuld %f12, %f12, %f16
    fmuld %f14, %f14, %f18
    faddd %f16, %f18, %f20
    fmuld %f12, %f14, %f22
    lddf  [%i2+0],   %f24
    faddd %f24, %f20, %f26
    fdivd %f22, %f26, %f28
    stdf  %f28, [%i3+0]
    fsubd %f2, %f8, %f0
    fmuld %f0, %f28, %f2
    faddd %f2, %f24, %f4
    stdf  %f4, [%i3+8]
    add   %l1, 1, %l1
    cmp   %l1, 512
    bl    tomcatv
    nop
)";

// Figure 1's WAR-then-RAW divide pattern embedded in a block with
// enough independent filler work to hide the divide latency — but
// only if the scheduler knows the divide is critical.  A builder that
// prunes the transitive 20-cycle RAW arc (Landskov) computes a short
// delay-to-leaf for the divide, schedules the filler chains first,
// and pays the divide latency at the end.
const char *kDivideChain = R"(
divchain:
    fdivd %f0, %f2, %f4
    faddd %f6, %f8, %f0
    faddd %f0, %f4, %f10
    stdf  %f10, [%fp-8]
    fmuld %f12, %f14, %f16
    fmuld %f16, %f14, %f18
    stdf  %f18, [%fp-16]
    fmuld %f20, %f22, %f24
    fmuld %f24, %f22, %f26
    stdf  %f26, [%fp-24]
    fmuld %f28, %f30, %f12
    fmuld %f12, %f30, %f20
    stdf  %f20, [%fp-32]
)";

// grep's byte-scan inner loop (integer code, small block).
const char *kGrepScan = R"(
scan:
    ldub  [%i0+0], %o0
    ldub  [%i0+1], %o1
    sll   %o0, 2, %l0
    ld    [%i1+%l0], %l1
    and   %o1, 127, %l2
    add   %l1, %l2, %l3
    st    %l3, [%fp-16]
    cmp   %l3, 256
    bl    scan
    nop
)";

// Pointer-chasing list walk with stores (dfa-like integer code).
const char *kListWalk = R"(
walk:
    ld    [%i0+0], %l0
    ld    [%i0+4], %l1
    add   %l1, 1, %l2
    st    %l2, [%i0+4]
    ld    [%i0+8], %l3
    xor   %l3, %l2, %l4
    st    %l4, [%fp-8]
    cmp   %l0, 0
    bne   walk
    nop
)";

} // namespace

std::vector<std::string>
kernelNames()
{
    return {"daxpy", "livermore1", "tomcatv", "grep-scan", "list-walk",
            "divide-chain"};
}

std::string
kernelSource(const std::string &name)
{
    if (name == "daxpy")
        return kDaxpy;
    if (name == "livermore1")
        return kLivermore1;
    if (name == "tomcatv")
        return kTomcatv;
    if (name == "grep-scan")
        return kGrepScan;
    if (name == "list-walk")
        return kListWalk;
    if (name == "divide-chain")
        return kDivideChain;
    fatal("unknown kernel '", name, "'");
}

Program
kernelProgram(const std::string &name)
{
    return parseAssembly(kernelSource(name));
}

Program
figure1Program()
{
    return parseAssembly(R"(
    fdivd %f0, %f2, %f4
    faddd %f6, %f8, %f0
    faddd %f0, %f4, %f10
)");
}

} // namespace sched91
