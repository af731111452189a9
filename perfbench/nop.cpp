// perfbench-nop: starts, prints "ready" and exits. run.py times its spawn
// beside each set-up as the host's process-creation reference. It links
// nothing from the simulator, so no change to the program moves it; it
// loads the C++ runtime, as every program binary does.
#include <iostream>

int main() {
  std::cout << "ready\n";
  return 0;
}
