/* Does nothing but exit: the fixed cost of one traced launch. */
#include "common.h"

void _start(void)
{
    finish(0);
}
