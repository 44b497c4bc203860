/**
 * @file
 * Fixed-size thread pool with a futures-based job API.
 *
 * Workers are started once and live for the pool's lifetime; jobs
 * are plain callables submitted from any thread, each returning a
 * std::future for its result. Destruction drains the queue (every
 * submitted job runs) and joins the workers; a submit that races
 * destruction runs its job on the submitting thread rather than
 * abandoning the future.
 *
 * The pipeline's fatal()/panic() error paths terminate the process
 * directly, exactly as they do in serial code, so job results never
 * carry exceptions across threads.
 */

#ifndef PIPESTITCH_RUNNER_POOL_HH
#define PIPESTITCH_RUNNER_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pipestitch::runner {

/**
 * Default worker count: the CPUs in the calling thread's affinity
 * mask (sched_getaffinity), or the hardware concurrency when the
 * mask cannot be read.
 */
int defaultJobs();

class ThreadPool
{
  public:
    /** @p threads <= 0 means defaultJobs(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const
    {
        return static_cast<int>(workers.size());
    }

    /** Queue @p fn; the future resolves when a worker finishes it. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        post([task] { (*task)(); });
        return result;
    }

  private:
    void post(std::function<void()> job);
    void workerLoop();

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    bool stopping = false;
    std::vector<std::thread> workers;
};

} // namespace pipestitch::runner

#endif // PIPESTITCH_RUNNER_POOL_HH
