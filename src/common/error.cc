#include "common/error.hh"

namespace wanify {

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

} // namespace wanify
