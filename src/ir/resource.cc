#include "ir/resource.hh"

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

Resource
parseRegister(std::string_view name)
{
    if (name.size() < 2 || name[0] != '%')
        return Resource();
    std::string_view body = name.substr(1);

    // Bank letter and one or two digits: the common case.
    std::string_view digits = body.substr(1);
    if (!digits.empty() && digits.size() <= 2) {
        int n = 0;
        for (char c : digits) {
            if (c < '0' || c > '9') {
                n = -1;
                break;
            }
            n = n * 10 + (c - '0');
        }
        if (n >= 0) {
            switch (body[0]) {
              case 'g':
                return n < 8 ? Resource::intReg(n) : Resource();
              case 'o':
                return n < 8 ? Resource::intReg(8 + n) : Resource();
              case 'l':
                return n < 8 ? Resource::intReg(16 + n) : Resource();
              case 'i':
                return n < 8 ? Resource::intReg(24 + n) : Resource();
              case 'r':
                return n < 32 ? Resource::intReg(n) : Resource();
              case 'f':
                return n < 32 ? Resource::fpReg(n) : Resource();
              default:
                return Resource();
            }
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
