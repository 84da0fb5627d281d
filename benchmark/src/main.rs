use hetbench::alloc::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(hetbench::cli::main(std::env::args().skip(1).collect()));
}
