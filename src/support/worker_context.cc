#include "support/worker_context.hh"

namespace sched91
{

namespace
{
thread_local WorkerContext *t_context = nullptr;
} // namespace

WorkerContext *
WorkerContext::current()
{
    return t_context;
}

Arena *
WorkerContext::currentArena()
{
    return t_context ? &t_context->arena() : nullptr;
}

Arena *
WorkerContext::currentScratchArena()
{
    return t_context ? &t_context->scratchArena() : nullptr;
}

WorkerContext::Scope::Scope(WorkerContext &ctx) : prev_(t_context)
{
    t_context = &ctx;
}

WorkerContext::Scope::~Scope() { t_context = prev_; }

} // namespace sched91
