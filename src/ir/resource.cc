#include "ir/resource.hh"

#include <array>

#include "support/logging.hh"

namespace sched91
{

Resource
Resource::fromSlot(int slot)
{
    if (slot < 0 || slot >= kNumSlots)
        return Resource();
    if (slot < kNumIntRegs)
        return intReg(slot);
    if (slot < kNumIntRegs + kNumFpRegs)
        return fpReg(slot - kNumIntRegs);
    switch (slot - kNumIntRegs - kNumFpRegs) {
      case 0:
        return icc();
      case 1:
        return fcc();
      case 2:
        return y();
      default:
        return callState();
    }
}

std::string
Resource::toString() const
{
    static const char *int_banks = "goli";
    switch (kind_) {
      case Kind::IntReg:
        return std::string("%") + int_banks[index_ / 8] +
               std::to_string(index_ % 8);
      case Kind::FpReg:
        return "%f" + std::to_string(static_cast<int>(index_));
      case Kind::IntCC:
        return "%icc";
      case Kind::FpCC:
        return "%fcc";
      case Kind::YReg:
        return "%y";
      case Kind::CallState:
        return "%call";
      default:
        return "%invalid";
    }
}

namespace
{

/** A register bank, by its letter: its kind, first index and size. */
struct Bank
{
    Resource::Kind kind = Resource::Kind::Invalid;
    std::uint8_t first = 0;
    std::uint8_t size = 0; ///< 0: no bank
};

constexpr std::array<Bank, 128> kBanks = [] {
    std::array<Bank, 128> t{};
    t['g'] = {Resource::Kind::IntReg, 0, 8};
    t['o'] = {Resource::Kind::IntReg, 8, 8};
    t['l'] = {Resource::Kind::IntReg, 16, 8};
    t['i'] = {Resource::Kind::IntReg, 24, 8};
    t['r'] = {Resource::Kind::IntReg, 0, 32};
    t['f'] = {Resource::Kind::FpReg, 0, 32};
    return t;
}();

} // namespace

Resource
parseRegister(std::string_view name)
{
    if (name.size() < 2 || name[0] != '%')
        return Resource();
    std::string_view body = name.substr(1);

    // Bank letter and one or two digits: the common case.
    if (name.size() == 3 || name.size() == 4) {
        const unsigned d0 = static_cast<unsigned char>(name[2]) - '0';
        const unsigned d1 =
            name.size() == 4 ? static_cast<unsigned char>(name[3]) - '0' : 0;
        if (d0 < 10 && d1 < 10) {
            const unsigned n = name.size() == 4 ? 10 * d0 + d1 : d0;
            const auto letter = static_cast<unsigned char>(name[1]);
            const Bank bank = letter < kBanks.size() ? kBanks[letter] : Bank();
            return n < bank.size
                       ? Resource(bank.kind,
                                  static_cast<std::uint8_t>(bank.first + n))
                       : Resource();
        }
    }

    if (body == "sp")
        return Resource::intReg(14); // %o6
    if (body == "fp")
        return Resource::intReg(30); // %i6
    if (body == "y")
        return Resource::y();
    if (body == "icc")
        return Resource::icc();
    if (body == "fcc")
        return Resource::fcc();
    return Resource();
}

} // namespace sched91
