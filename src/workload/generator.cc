#include "workload/generator.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "ir/basic_block.hh"
#include "support/logging.hh"
#include "support/prng.hh"
#include "support/string_util.hh"

namespace sched91
{

namespace
{

/** Base registers the generated code never redefines (pointers). */
constexpr int kBaseRegs[] = {1, 2, 3, 4, 24, 25, 26, 27, 28, 29};

/** Destination rotation set for integer results. */
constexpr int kIntDests[] = {5, 6, 8, 9, 10, 11, 12, 13,
                             16, 17, 18, 19, 20, 21, 22, 23};

/** Even FP registers (double-precision slots). */
constexpr int kFpDests[] = {0, 2, 4, 6, 8, 10, 12, 14,
                            16, 18, 20, 22, 24, 26, 28, 30};

/** Decide each block's size, honoring total / max / second-largest. */
std::vector<int>
blockSizes(const WorkloadProfile &p, Prng &rng)
{
    std::vector<int> sizes;
    sizes.reserve(p.numBlocks);
    int fixed_sum = 0;
    int fixed_count = 0;

    if (p.maxBlock > 0) {
        sizes.push_back(p.maxBlock);
        fixed_sum += p.maxBlock;
        ++fixed_count;
    }
    if (p.secondBlock > 0) {
        sizes.push_back(p.secondBlock);
        fixed_sum += p.secondBlock;
        ++fixed_count;
    }

    int rest = p.numBlocks - fixed_count;
    SCHED91_ASSERT(rest > 0, "profile too small");
    double mean = static_cast<double>(p.totalInsts - fixed_sum) / rest;
    int cap = std::min(p.maxBlock - 1,
                       std::max(4, static_cast<int>(mean * 8)));

    long long sum = 0;
    for (int i = 0; i < rest; ++i) {
        int s = rng.heavyTail(mean, cap);
        sizes.push_back(s);
        sum += s;
    }

    // Exact-total adjustment on the non-pinned blocks.
    long long target = p.totalInsts - fixed_sum;
    while (sum != target) {
        std::size_t i =
            fixed_count + static_cast<std::size_t>(rng.below(rest));
        if (sum < target && sizes[i] < cap) {
            ++sizes[i];
            ++sum;
        } else if (sum > target && sizes[i] > 1) {
            --sizes[i];
            --sum;
        }
    }

    // Shuffle so the pinned giants sit somewhere in the middle.
    for (std::size_t i = sizes.size(); i > 1; --i)
        std::swap(sizes[i - 1], sizes[rng.below(i)]);
    return sizes;
}

/** Per-block unique-memory-expression budget. */
std::vector<int>
memBudgets(const WorkloadProfile &p, const std::vector<int> &sizes,
           Prng &rng)
{
    double avg_size =
        static_cast<double>(p.totalInsts) / p.numBlocks;
    std::vector<int> budgets;
    budgets.reserve(sizes.size());
    for (int s : sizes) {
        // The 1.4 factor calibrates for budget under-consumption:
        // introductions landing after a block's final memory access
        // are dropped, and colliding random expressions deduplicate.
        double raw = 1.4 * p.avgMemExprs * s / avg_size;
        raw *= 0.7 + 0.6 * rng.uniform(); // jitter
        int mem_ops = static_cast<int>(
            (p.loadFraction + p.storeFraction) * s) + 1;
        int m = static_cast<int>(std::lround(raw));
        m = std::min({m, p.maxMemExprs, mem_ops});
        budgets.push_back(std::max(s >= 4 ? 1 : 0, m));
    }
    // Pin the single largest block to the profile's maximum.
    std::size_t big = 0;
    for (std::size_t i = 1; i < sizes.size(); ++i)
        if (sizes[i] > sizes[big])
            big = i;
    budgets[big] = std::min(
        p.maxMemExprs,
        static_cast<int>((p.loadFraction + p.storeFraction) *
                         sizes[big]) + 1);
    return budgets;
}

/** State for generating one block. */
class BlockGen
{
  public:
    BlockGen(const WorkloadProfile &p, Prng &rng, Program &prog,
             int block_id, int size, int mem_budget)
        : p_(p), rng_(rng), prog_(prog), blockId_(block_id), size_(size),
          memBudget_(mem_budget)
    {
    }

    void
    emit()
    {
        prog_.addLabel(numbered("B", blockId_));
        planExprIntroductions();

        int tail = tailLength();
        // Large blocks materialize their array pointers first, like
        // compiled code does (sethi into a base register that the
        // rest of the block addresses through).  This is what gives
        // real fpppp blocks nodes with hundreds of children: one
        // pointer definition feeding every reference based on it.
        int setups = 0;
        if (size_ >= 64) {
            setups = std::min<int>(std::size(kBaseRegs),
                                   1 + size_ / 256);
            for (int k = 0; k < setups; ++k) {
                // sethi places the pointer inside the register's own
                // 16 MiB address region (value = (reg << 24) + r <<
                // 10), so distinct base registers keep provably
                // disjoint address ranges under the executor and the
                // expression-as-resource disambiguation stays sound.
                int reg = kBaseRegs[k];
                std::int64_t imm =
                    (static_cast<std::int64_t>(reg) << 14) +
                    static_cast<std::int64_t>(rng_.below(1 << 13));
                prog_.append(makeInstruction(
                    Opcode::Sethi, Resource(), Resource(),
                    Resource::intReg(reg), std::nullopt, imm));
            }
        }

        for (int i = 0; i < size_ - tail - setups; ++i)
            emitBody(i);
        emitTail(tail);
    }

  private:
    /** How many instructions the block ending consumes. */
    int
    tailLength()
    {
        double u = rng_.uniform();
        if (size_ >= 3 && u < p_.branchProb) {
            tailKind_ = Tail::Branch;
            return 2; // cmp + bcc
        }
        if (size_ >= 1 && u < p_.branchProb + p_.callProb) {
            tailKind_ = Tail::Call;
            return 1;
        }
        tailKind_ = Tail::None;
        return 0;
    }

    /** Pre-draw positions at which new memory expressions first appear,
     * skewed toward the block end by endBias. */
    void
    planExprIntroductions()
    {
        for (int j = 0; j < memBudget_; ++j) {
            double u = rng_.uniform();
            double skew = std::pow(u, 1.0 / (1.0 + 1.5 * p_.endBias));
            introductions_.push_back(
                static_cast<int>(skew * (size_ - 1)));
        }
        std::sort(introductions_.begin(), introductions_.end());
    }

    /** A memory operand for this reference (new or from the pool). */
    MemOperand
    pickExpr(int pos, std::uint8_t width)
    {
        bool introduce =
            nextIntro_ < introductions_.size() &&
            introductions_[nextIntro_] <= pos;
        if (introduce || pool_.empty()) {
            ++nextIntro_;
            MemOperand m;
            // A few attempts to draw an expression not already in the
            // pool, so the budget translates into *unique* expressions.
            for (int attempt = 0; attempt < 4; ++attempt) {
                m = MemOperand{};
                double u = rng_.uniform();
                if (u < 0.45) { // frame slot
                    m.base = 30; // %fp
                    m.offset = -8 * static_cast<std::int64_t>(
                                   1 + rng_.below(480));
                } else if (u < 0.85) { // array via stable pointer
                    m.base =
                        kBaseRegs[rng_.below(std::size(kBaseRegs))];
                    m.offset =
                        8 * static_cast<std::int64_t>(rng_.below(480));
                } else { // static datum
                    m.symbol = "data" + std::to_string(rng_.below(24));
                    m.offset =
                        8 * static_cast<std::int64_t>(rng_.below(128));
                }
                bool clash = false;
                for (const MemOperand &e : pool_)
                    if (e.base == m.base && e.index == m.index &&
                        e.symbol == m.symbol && e.offset == m.offset) {
                        clash = true;
                        break;
                    }
                if (!clash)
                    break;
            }
            m.width = width;
            pool_.push_back(m);
            return m;
        }
        MemOperand m = pool_[rng_.below(pool_.size())];
        m.width = width;
        return m;
    }

    Resource
    nextIntDest()
    {
        Resource r = Resource::intReg(
            kIntDests[intDestIdx_++ % std::size(kIntDests)]);
        recentInt_.push_back(r);
        if (recentInt_.size() > 6)
            recentInt_.erase(recentInt_.begin());
        return r;
    }

    Resource
    nextFpDest()
    {
        Resource r = Resource::fpReg(
            kFpDests[fpDestIdx_++ % std::size(kFpDests)]);
        recentFp_.push_back(r);
        if (recentFp_.size() > 6)
            recentFp_.erase(recentFp_.begin());
        return r;
    }

    Resource
    pickIntSrc()
    {
        if (!recentInt_.empty() && rng_.chance(0.7))
            return recentInt_[rng_.below(recentInt_.size())];
        return Resource::intReg(
            kBaseRegs[rng_.below(std::size(kBaseRegs))]);
    }

    Resource
    pickFpSrc()
    {
        if (!recentFp_.empty() && rng_.chance(0.75))
            return recentFp_[rng_.below(recentFp_.size())];
        return Resource::fpReg(kFpDests[rng_.below(std::size(kFpDests))]);
    }

    void
    emitBody(int pos)
    {
        double u = rng_.uniform();
        if (u < p_.loadFraction) {
            bool fp = rng_.chance(p_.fpFraction);
            if (fp) {
                MemOperand m = pickExpr(pos, 8);
                prog_.append(makeInstruction(Opcode::Lddf, Resource(),
                                             Resource(), nextFpDest(),
                                             m));
            } else {
                MemOperand m = pickExpr(pos, 4);
                prog_.append(makeInstruction(Opcode::Ld, Resource(),
                                             Resource(), nextIntDest(),
                                             m));
            }
            return;
        }
        if (u < p_.loadFraction + p_.storeFraction) {
            bool fp = rng_.chance(p_.fpFraction) && !recentFp_.empty();
            if (fp) {
                MemOperand m = pickExpr(pos, 8);
                prog_.append(makeInstruction(Opcode::Stdf, pickFpSrc(),
                                             Resource(), Resource(), m));
            } else {
                MemOperand m = pickExpr(pos, 4);
                prog_.append(makeInstruction(Opcode::St, pickIntSrc(),
                                             Resource(), Resource(), m));
            }
            return;
        }
        if (rng_.chance(p_.fpFraction)) {
            static constexpr Opcode fp_ops[] = {
                Opcode::Faddd, Opcode::Faddd, Opcode::Fsubd,
                Opcode::Fmuld, Opcode::Fmuld, Opcode::Fdivd,
            };
            Opcode op = fp_ops[rng_.below(std::size(fp_ops))];
            if (op == Opcode::Fdivd && !rng_.chance(0.25))
                op = Opcode::Fmuld; // divides are rare
            Resource s1 = pickFpSrc();
            Resource s2 = pickFpSrc();
            prog_.append(makeInstruction(op, s1, s2, nextFpDest()));
            return;
        }
        static constexpr Opcode int_ops[] = {
            Opcode::Add, Opcode::Add, Opcode::Sub, Opcode::And,
            Opcode::Or, Opcode::Xor, Opcode::Sll, Opcode::Sethi,
        };
        Opcode op = int_ops[rng_.below(std::size(int_ops))];
        if (op == Opcode::Sethi) {
            prog_.append(makeInstruction(op, Resource(), Resource(),
                                         nextIntDest(), std::nullopt,
                                         static_cast<std::int64_t>(
                                             rng_.below(1 << 20))));
            return;
        }
        Resource s1 = pickIntSrc();
        Resource s2;
        std::int64_t imm = 0;
        if (rng_.chance(0.4))
            imm = rng_.range(-512, 511);
        else
            s2 = pickIntSrc();
        prog_.append(makeInstruction(op, s1, s2, nextIntDest(),
                                     std::nullopt, imm));
    }

    void
    emitTail(int tail)
    {
        if (tailKind_ == Tail::Branch && tail == 2) {
            prog_.append(makeInstruction(Opcode::Cmp, pickIntSrc(),
                                         Resource(), Resource(),
                                         std::nullopt,
                                         rng_.range(0, 15)));
            static constexpr Opcode branches[] = {
                Opcode::Bne, Opcode::Be, Opcode::Bg, Opcode::Bl,
                Opcode::Bge, Opcode::Ble,
            };
            Instruction br = makeInstruction(
                branches[rng_.below(std::size(branches))], Resource(),
                Resource(), Resource());
            br.setTarget(numbered("B", blockId_ + 1));
            prog_.append(std::move(br));
        } else if (tailKind_ == Tail::Call && tail == 1) {
            Instruction call = makeInstruction(Opcode::Call, Resource(),
                                               Resource(), Resource());
            call.setTarget("func" + std::to_string(rng_.below(12)));
            prog_.append(std::move(call));
        }
    }

    enum class Tail { None, Branch, Call };

    const WorkloadProfile &p_;
    Prng &rng_;
    Program &prog_;
    int blockId_;
    int size_;
    int memBudget_;
    Tail tailKind_ = Tail::None;

    std::vector<MemOperand> pool_;
    std::vector<int> introductions_;
    std::size_t nextIntro_ = 0;
    std::vector<Resource> recentInt_;
    std::vector<Resource> recentFp_;
    std::size_t intDestIdx_ = 0;
    std::size_t fpDestIdx_ = 0;
};

} // namespace

Program
generateProgram(const WorkloadProfile &profile)
{
    Prng rng(profile.seed * 0x9e3779b97f4a7c15ULL + 1);
    Program prog;

    std::vector<int> sizes = blockSizes(profile, rng);
    std::vector<int> budgets = memBudgets(profile, sizes, rng);

    for (std::size_t i = 0; i < sizes.size(); ++i) {
        BlockGen gen(profile, rng, prog, static_cast<int>(i), sizes[i],
                     budgets[i]);
        gen.emit();
    }

    stampMemGenerations(prog);
    return prog;
}

const Program &
cachedProgram(const std::string &profile_name)
{
    static std::mutex mutex;
    static std::map<std::string, Program> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(profile_name);
    if (it == cache.end()) {
        it = cache.emplace(profile_name,
                           generateProgram(profileByName(profile_name)))
                 .first;
    }
    return it->second;
}

} // namespace sched91
