#include "runner/pool.hh"

#include <sched.h>

#include <algorithm>

namespace pipestitch::runner {

int
defaultJobs()
{
    // The CPUs this thread may run on: an affinity mask (taskset,
    // a container's cpuset) can be far narrower than the machine.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads)
{
    int n = threads <= 0 ? defaultJobs() : threads;
    workers.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cv.notify_all();
    for (std::thread &w : workers)
        w.join();
    // Workers only exit once stopping is set AND the queue is empty,
    // so everything posted before shutdown began has run. Any job
    // still here slipped past both guards (e.g. a post() that held
    // the lock between our stopping store and the last worker's
    // final check); run it now rather than break its promise.
    for (auto &job : queue)
        job();
    queue.clear();
}

void
ThreadPool::post(std::function<void()> job)
{
    {
        std::unique_lock<std::mutex> lock(mu);
        if (!stopping) {
            queue.push_back(std::move(job));
            lock.unlock();
            cv.notify_one();
            return;
        }
    }
    // Shutdown has begun: the workers may already have drained the
    // queue and exited, so nothing would ever pop this job. The
    // header guarantees every submitted job runs — honor it on the
    // posting thread instead of abandoning the future to a
    // broken_promise mid-shutdown.
    job();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock,
                    [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            job = std::move(queue.front());
            queue.pop_front();
        }
        job();
    }
}

} // namespace pipestitch::runner
